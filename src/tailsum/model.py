"""The log-elliptical risk vector: validation, exact marginals, samplers.

The risk model is X_i = lam_i * Z_i^(beta_i*gamma) with
(Z_1, ..., Z_d) = exp(R * A * U), where R is a radial law, U is uniform
on the unit sphere, and A is the lower Cholesky factor of the
correlation matrix.  With a ChiOfDim(d) radial the vector of log-risks
is exactly multivariate normal, so all margins are log-normal; other
radial laws take them from one log-space sphere-coordinate integral.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DomainError, InvalidParams, NoFiniteLimit, NotPositiveDefinite,
                     WrongRadialLaw)
from ._kernels import _PASS
from .numerics import (CorrelationMatrix, _margin_inputs, _sigma_inputs,
                       adaptive_quad, check_draws, check_margin, check_real,
                       check_threshold, equicorrelation, is_integer_at_least,
                       lognormal_log_pdf, std_normal_log_tail, std_normal_tail)
from .radial import RadialLaw, make_radial

__all__ = ["ModelSpec", "SampleBatch", "validate_inputs",
           "marginal_tail", "marginal_log_tail", "marginal_pdf",
           "coordinate_tail", "coordinate_log_tail", "sample", "SAMPLE_CHUNK"]

# Fixed chunk length for sample generation; part of the reproducibility
# contract (results depend on it, never on the worker count).  The
# conditional estimator's chunks hold whole RQMC blocks of up to this
# many points, or one piece of a larger block (see rqmc).
SAMPLE_CHUNK = 1 << 16


def _chunks(n: int, seed: int) -> list[tuple[np.random.SeedSequence, int]]:
    """The chunk contract: (child seed, size) of each chunk of n draws, in
    order; all but the last hold SAMPLE_CHUNK, chunk i has child i of seed."""
    children = np.random.SeedSequence(seed).spawn(-(-n // SAMPLE_CHUNK))
    return [(c, min(SAMPLE_CHUNK, n - i * SAMPLE_CHUNK)) for i, c in enumerate(children)]


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A validated, index-normalized log-elliptical risk model.

    Construction sorts margins by decreasing exponent (ties broken by
    decreasing scale factor) so that margin 0 carries the largest
    exponent and, within that group, the largest scale factor.  The
    applied ``permutation`` maps stored index -> original index.
    Bad input raises InvalidParams with the ``validate_inputs`` list.
    """

    d: int
    lam: np.ndarray
    beta: np.ndarray
    gamma: float
    sigma: CorrelationMatrix
    radial: RadialLaw
    permutation: np.ndarray = field(init=False)

    def __post_init__(self):
        problems, values = _model_inputs(self.d, self.lam, self.beta, self.gamma,
                                         self.sigma)
        if not isinstance(self.radial, RadialLaw):
            problems.append(f"radial must be a RadialLaw, got {self.radial!r}")
        if problems:
            raise InvalidParams("; ".join(problems))
        for name, value in values.items():
            object.__setattr__(self, name, value)

    @classmethod
    def standard(cls, d: int, rho: float, radial: RadialLaw | None = None) -> "ModelSpec":
        """Equicorrelated standard model: lam = beta = gamma = 1."""
        sigma = equicorrelation(d, rho)  # checks d before np.ones reads it
        return cls(d=d, lam=np.ones(d), beta=np.ones(d), gamma=1.0, sigma=sigma,
                   radial=radial or make_radial("ChiOfDim", d))

    def margin_scale(self, j: int, u: float) -> float:
        """Scaling of margin j at threshold u.

        beta_j*gamma * u * e(v) / v  with  v = (u/lam_j)^(1/(beta_j*gamma)),
        where e is the exp(R) scaling, so e(v) / v = b(log v) for the
        radial scaling b.  Defined for v > 1, i.e. u > lam_j.  Formed from
        log v, never v itself, so it stays finite where v overflows.
        """
        check_margin(j, self.d)
        if check_real(u, "threshold u") <= self.lam[j]:
            raise DomainError(
                f"margin_scale needs u > lam_j (margin {j}: u={u}, lam={self.lam[j]})")
        bg = self.beta[j] * self.gamma
        return bg * u * self.radial.scaling(math.log(u / self.lam[j]) / bg)

    def margin_scale_limit(self, j: int) -> float:
        """Limit c_j = (gamma*beta_j)^2 * kappa of log(u) * margin_scale(j, u)/u,
        kappa the law's ``scaling_limit``: the quotient is beta_j*gamma *
        log(u) * b(log v) with log v = log(u/lam_j)/(beta_j*gamma), so lam_j
        drops out.  NoFiniteLimit naming the law when kappa is infinite."""
        check_margin(j, self.d)
        kappa = self.radial.scaling_limit
        if math.isinf(kappa):
            raise NoFiniteLimit(
                f"the {self.radial!r} radial law has r * b(r) -> inf, so the "
                f"margin scaling limit c_{j} does not exist")
        return (self.gamma * self.beta[j]) ** 2 * kappa

    def is_gaussian_copula(self) -> bool:
        """The one test for the closed forms: log-risks jointly Gaussian."""
        return self.radial.kind == "ChiOfDim" and self.radial.params[0] == self.d

    def require_gaussian_copula(self, what: str) -> None:
        """WrongRadialLaw naming ``what``, the law and d, unless Gaussian."""
        if not self.is_gaussian_copula():
            raise WrongRadialLaw(
                f"{what} needs the ChiOfDim radial matching the dimension "
                f"(got {self.radial!r} with d={self.d})")


def validate_inputs(d, lam, beta, gamma, sigma) -> list[str]:
    """Violation list for raw, possibly unconstructable, model ingredients.
    Unlike the ModelSpec constructor it never raises; an empty list means a
    ModelSpec can be built from them, and otherwise it raises with it."""
    return _model_inputs(d, lam, beta, gamma, sigma)[0]


def _model_inputs(d, lam, beta, gamma, sigma) -> tuple[list[str], dict]:
    """The one pass over the inputs: their violations and, if there are
    none, ModelSpec's sorted fields, sigma the one CorrelationMatrix of the
    sorted sigma (itself if it is one needing no permutation; a symmetric
    permutation keeps positive definiteness, so the violations agree)."""
    if not is_integer_at_least(d, 1):
        return [f"dimension must be an integer >= 1, got {d!r}"], {}
    m, sigma_violations = _sigma_inputs(sigma, d)
    lam, beta, violations = _margin_inputs(d, lam, beta, gamma)
    if violations := violations + sigma_violations:
        return violations, {}
    perm = np.lexsort((-lam, -beta))  # decreasing beta, then decreasing lam
    if not isinstance(sigma, CorrelationMatrix) or np.any(perm != np.arange(d)):
        try:
            sigma = CorrelationMatrix(m[np.ix_(perm, perm)])
        except NotPositiveDefinite:
            return ["sigma is not positive definite"], {}
    values = {"lam": lam[perm], "beta": beta[perm], "permutation": perm}
    for value in values.values():
        value.setflags(write=False)
    return [], {**values, "sigma": sigma}


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------

def _margin_w(spec: ModelSpec, j: int, u: float) -> float:
    """Check j and u; return w = log(u/lam_j)/(beta_j*gamma), the
    threshold of margin j on the scale of its log-coordinate."""
    check_margin(j, spec.d)
    check_threshold(u)
    return float(math.log(u / spec.lam[j]) / (spec.beta[j] * spec.gamma))


def marginal_log_tail(spec: ModelSpec, j: int, u: float) -> float:
    """log P(X_j > u); exact normal complement under the Gaussian copula,
    otherwise ``coordinate_log_tail`` at w = log(u/lam_j)/(beta_j*gamma)."""
    w = _margin_w(spec, j, u)
    if spec.is_gaussian_copula():
        return std_normal_log_tail(w)
    return coordinate_log_tail(spec.radial, spec.d, w)


def marginal_tail(spec: ModelSpec, j: int, u: float) -> float:
    """P(X_j > u); the exact log-normal tail under the Gaussian copula,
    otherwise the exponential of ``marginal_log_tail``."""
    w = _margin_w(spec, j, u)
    if spec.is_gaussian_copula():
        return std_normal_tail(w)
    return coordinate_tail(spec.radial, spec.d, w)


def _log_sphere_integral(log_f, d: int, a: float, p: int) -> float:
    """log int_0^1 f(a/t) t^(-p) h(t) dt for a > 0, from log f, h the
    sphere-coordinate density Gamma(d/2) / (sqrt(pi) Gamma((d-1)/2))
    (1 - t^2)^((d-3)/2) (mass 1/2 at t = 1 for d = 1).  Quadrature in
    t = sin(s) of g(t) = f(a/t) t^(-p) over its largest value on a halving
    grid, whose points are breakpoints, so every piece sees its part of
    the peak at order one: t = 1, 1/2, ... while g is within a factor e of
    that largest value, and for a peak at t = 1 that the quadrature would
    miss, s = pi/2 - pi/1024, pi/2 - pi/2048, ... until g is."""
    if d == 1:
        return math.log(0.5) + log_f(a)

    def log_g(t: float) -> float:
        return log_f(a / t) - p * math.log(t)

    grid, top = [1.0], log_g(1.0)
    while (below := log_g(0.5 * grid[-1])) > top - 1.0:
        grid.append(0.5 * grid[-1])
        top = max(top, below)
    ladder = [math.pi / 512]
    while grid == [1.0] and log_g(math.cos(ladder[-1])) < top - 1.0:
        ladder.append(0.5 * ladder[-1])

    def integrand(s: float) -> float:
        t = math.sin(s)
        return math.exp(log_g(t) - top) * math.cos(s) ** (d - 2) if t > 0.0 else 0.0

    points = ([math.asin(t) for t in reversed(grid[1:])]
              + [0.5 * math.pi - x for x in ladder[1:]])
    val = adaptive_quad(integrand, 0.0, 0.5 * math.pi, abs_tol=0.0, rel_tol=1e-11,
                        points=points)
    return (top + math.log(val) + math.lgamma(d / 2.0) - math.lgamma((d - 1) / 2.0)
            - 0.5 * math.log(math.pi))


def coordinate_log_tail(law: RadialLaw, d: int, w: float) -> float:
    """log P(R * T > w), T a coordinate of a uniform point on the unit
    sphere in R^d independent of R: log int_0^1 tail_R(w/t) h(t) dt for
    w > 0, log(1/2) at 0 and log(1 - P(R T > -w)) below, T being
    symmetric.  DomainError unless d >= 1 by the integer rule and w is
    finite."""
    if not (is_integer_at_least(d, 1) and math.isfinite(w)):
        raise DomainError("coordinate_tail needs an integer d >= 1 and a finite "
                          f"w, got d={d!r}, w={w}")
    if w == 0.0:
        return math.log(0.5)
    log_tail = _log_sphere_integral(law.log_tail, d, abs(w), 0)
    return log_tail if w > 0.0 else math.log1p(-math.exp(log_tail))


def coordinate_tail(law: RadialLaw, d: int, w: float) -> float:
    """P(R * T > w), the exponential of ``coordinate_log_tail``."""
    return math.exp(coordinate_log_tail(law, d, w))


def marginal_pdf(spec: ModelSpec, j: int, u: float) -> float:
    """Density of X_j at u, the exponential of ``marginal_log_pdf``."""
    return math.exp(marginal_log_pdf(spec, j, u))


def marginal_log_pdf(spec: ModelSpec, j: int, u: float) -> float:
    """log density of X_j at u: log-normal under the Gaussian copula;
    otherwise int_0^1 f_R(|w|/t) h(t)/t dt / (u beta_j gamma), the
    derivative of ``coordinate_log_tail`` taken under the integral.  At
    u = lam_j (w = 0) that is h(0) E[1/R] / (u beta_j gamma), possibly
    infinite, and is refused with DomainError."""
    w = _margin_w(spec, j, u)
    bg = spec.beta[j] * spec.gamma
    if spec.is_gaussian_copula():
        return float(lognormal_log_pdf(u, math.log(spec.lam[j]), bg))
    if w == 0.0:
        raise DomainError(f"the density of X_{j} under {spec.radial!r} at u=lam_j={u!r} "
                          "is h(0) E[1/R] / (u beta_j gamma), which is not evaluated")
    return (_log_sphere_integral(spec.radial.log_density, spec.d, abs(w), 1)
            - math.log(u) - math.log(bg))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleBatch:
    """n draws of the risk vector, reproducible from (seed, n, spec)."""

    n: int
    x: np.ndarray
    seed: int


def _chunk_rng(child: np.random.SeedSequence) -> np.random.Generator:
    """The generator of one sample chunk: SFC64 seeded by the chunk's
    spawned child, shared by ``sample`` and ``montecarlo.crude_mc`` so
    their draws match."""
    return np.random.Generator(np.random.SFC64(child))


def _draw_chunk(spec: ModelSpec, rng: np.random.Generator, m: int,
                chol: np.ndarray) -> np.ndarray:
    """m draws of the log-coordinates y (X = lam * exp(beta*gamma*y)).

    The normals e are drawn as a (d, m) array, one draw per column, and
    y = chol @ e is formed by BLAS products: under the Gaussian copula
    exactly N(0, Sigma).  Other radial laws then rescale each draw to
    y = R * A * (e / |e|), the norm taken over each column of e.
    Returns the (m, d) transposed view, so rows are draws and each
    margin is a contiguous column.

    The product overwrites e, the kernels' _PASS columns at a time through
    a small buffer, so a chunk holds one (d, m) block.  glibc's malloc
    returns freed heap memory to the operating system once it exceeds
    twice the largest block freed so far; with y as a second block a
    chunk crosses that line, and every chunk then page-faults its memory
    in again (half the wall time of a d = 2 run on one worker).
    """
    e = rng.standard_normal((spec.d, m))
    gaussian = spec.is_gaussian_copula()
    if not gaussian:
        scale = spec.radial.sampler(rng, m) / np.sqrt(np.einsum("ij,ij->j", e, e))
    buf = np.empty((spec.d, min(m, _PASS)))
    for start in range(0, m, _PASS):
        cols = e[:, start:start + _PASS]
        out = buf[:, :cols.shape[1]]
        np.matmul(chol, cols, out=out)
        cols[...] = out
    if not gaussian:
        e *= scale
    return e.T


def sample(spec: ModelSpec, n: int, seed: int) -> SampleBatch:
    """Draw n risk vectors.

    Generation is chunked (``_chunks``): each chunk of SAMPLE_CHUNK draws
    has its own SFC64 generator (``_chunk_rng``) seeded by its child of
    the seed, so any worker-level parallelism over chunks cannot change the
    result.  ``montecarlo.crude_mc`` draws the same stream.
    """
    n, seed = check_draws(n, seed)
    chol = spec.sigma.cholesky()
    bg = spec.beta * spec.gamma
    out = np.empty((n, spec.d))
    for i, (child, m) in enumerate(_chunks(n, seed)):
        y = _draw_chunk(spec, _chunk_rng(child), m, chol)
        out[i * SAMPLE_CHUNK:i * SAMPLE_CHUNK + m] = spec.lam * np.exp(bg * y)
    out.setflags(write=False)
    return SampleBatch(n=n, x=out, seed=seed)
