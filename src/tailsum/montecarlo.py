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
  plain decomposition is dominated by rare conditioning draws.

Determinism: work is split into fixed-size chunks with per-chunk
generators spawned from the seed; chunk results are merged in index
order with exact (fsum) accumulation, so estimates are bit-identical
for any worker count.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy import optimize

from . import _kernels, model
from .errors import DomainError, InvalidParams, WrongRadialLaw
from .model import SAMPLE_CHUNK, ModelSpec, _draw_chunk, marginal_tail
from .numerics import std_normal_log_tail

__all__ = ["MCEstimate", "crude_mc", "conditional_max_mc", "mc_table",
           "worker_count", "ESTIMATOR_CRUDE", "ESTIMATOR_CONDITIONAL"]

ESTIMATOR_CRUDE = "crude"
ESTIMATOR_CONDITIONAL = "conditional_max"

# Defensive-mixture weight of the mean-shifted component.  Bounds the
# likelihood ratio by 1/(1-mix), so a misplaced shift can at most double
# the second moment relative to the plain estimator.
DEFAULT_MIX = 0.5

_U64 = (1 << 64) - 1


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
    if not math.isfinite(u):
        raise DomainError(f"threshold must be finite, got {u}")
    start = time.perf_counter()
    chol = spec.sigma.cholesky()
    bg = spec.beta * spec.gamma

    def task(child, m):
        rng = np.random.default_rng(child)
        return _kernels.crude_chunk(_draw_chunk(spec, rng, m, chol), u,
                                    spec.lam, bg)

    hits = sum(_run_chunks(n, seed, workers, task))
    p = hits / n
    stderr = math.sqrt(p * (1.0 - p) / n)
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
            m = _find_shift(spec, u, j, oth, a, cond_sd[j], sub)
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
    """log of (conditional exceedance prob * conditioning density kernel)."""
    sub_inv = np.linalg.inv(sub)
    lam_o = spec.lam[oth]
    bg_o = spec.beta[oth] * spec.gamma
    bg_j = spec.beta[j] * spec.gamma
    lam_j = spec.lam[j]

    def h(y: np.ndarray) -> float:
        x = lam_o * np.exp(bg_o * y)
        threshold = max(float(np.max(x)), u - float(np.sum(x)))
        if not 0.0 < threshold < math.inf:
            return -math.inf  # exp overflow/underflow at an extreme scan point
        z = (math.log(threshold / lam_j) / bg_j - float(alpha @ y)) / sd
        return std_normal_log_tail(z) - 0.5 * float(y @ sub_inv @ y)

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
    h0 = h(np.zeros(k))
    t_max = max(math.log(u / np.min(spec.lam[oth])) / np.min(spec.beta[oth] * spec.gamma), 1.0) + 4.0
    directions = [np.ones(k)]
    reg = sub @ alpha
    norm = float(np.max(np.abs(reg)))
    if norm > 1e-12:
        directions.append(reg / norm)
        directions.append(-reg / norm)
    best_y, best_h = np.zeros(k), h0
    for v in directions:
        for t in np.linspace(-3.0, t_max, 121):
            y = t * v
            val = h(y)
            if val > best_h:
                best_h, best_y = val, y
    res = optimize.minimize(lambda y: -h(y), best_y, method="Nelder-Mead",
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
    Needs the ChiOfDim radial (Gaussian copula of the log-risks).
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
    if not math.isfinite(u):
        raise DomainError(f"threshold must be finite, got {u}")
    if u <= 0.0:
        raise DomainError(f"threshold must be positive, got {u}")
    start = time.perf_counter()
    if spec.d == 1:
        value = marginal_tail(spec, 0, u)
        return MCEstimate(value=value, stderr=0.0, n=n,
                          estimator=ESTIMATOR_CONDITIONAL, seed=seed,
                          elapsed=time.perf_counter() - start)
    plan = _conditional_plan(spec, u, tilt, mix)
    chol = spec.sigma.cholesky()
    bg = spec.beta * spec.gamma

    def task(child, m):
        rng = np.random.default_rng(child)
        # Looked up on the model module: perfbench's tracer test deletes this
        # module's _draw_chunk name and still runs this estimator.
        y = model._draw_chunk(spec, rng, m, chol)
        umix = np.ascontiguousarray(rng.random((m, spec.d)))
        w = np.empty(m)
        _kernels.conditional_chunk(y, umix, w, u, spec.lam, bg, plan.others,
                                   plan.alpha, plan.cond_sd, plan.shift,
                                   plan.tilt_vec, plan.tilt_const, plan.mix)
        return _scaled_moments(w)

    value, stderr = _merge_scaled(_run_chunks(n, seed, workers, task), n)
    return MCEstimate(value=value, stderr=stderr, n=n,
                      estimator=ESTIMATOR_CONDITIONAL, seed=seed,
                      elapsed=time.perf_counter() - start)


def _scaled_moments(w: np.ndarray) -> tuple[float, float, float]:
    """(s, sum(w/s), sum((w/s)^2)) with s = max(w); overwrites w.

    Scaling by the chunk's largest weight keeps the second moment from
    underflowing when the weights themselves are far below 1e-154.
    """
    s = float(np.max(w))
    if s > 0.0:
        w /= s
    return s, float(np.sum(w)), float(np.sum(w * w))


def _merge_scaled(parts, n: int) -> tuple[float, float]:
    """Mean and standard error from per-chunk ``_scaled_moments``.

    Rescales every chunk to the largest chunk scale G and sums in chunk
    order with fsum, so the result is independent of the worker count.
    """
    g = max(p[0] for p in parts)
    if g == 0.0:
        return 0.0, 0.0
    s1 = math.fsum(a * (s / g) for s, a, _ in parts)
    s2 = math.fsum(b * (s / g) ** 2 for s, _, b in parts)
    var = max(s2 - s1 * s1 / n, 0.0) / (n - 1) if n > 1 else 0.0
    return g * (s1 / n), g * math.sqrt(var / n)


def mc_table(spec: ModelSpec, u_list: Sequence[float], n: int, seed: int,
             estimator: str = ESTIMATOR_CONDITIONAL,
             workers: int | None = None) -> list[MCEstimate]:
    """One estimate per threshold, with per-threshold seeds seed XOR index."""
    if len(u_list) == 0:
        raise InvalidParams("u_list must not be empty")
    if estimator not in (ESTIMATOR_CRUDE, ESTIMATOR_CONDITIONAL):
        raise InvalidParams(f"unknown estimator {estimator!r}")
    run = crude_mc if estimator == ESTIMATOR_CRUDE else conditional_max_mc
    return [run(spec, u, n, (seed ^ idx) & _U64, workers=workers)
            for idx, u in enumerate(u_list)]
