"""The log-elliptical risk vector: validation, exact marginals, samplers.

The risk model is X_i = lam_i * Z_i^(beta_i*gamma) with
(Z_1, ..., Z_d) = exp(R * A * U), where R is a radial law, U is uniform
on the unit sphere, and A is the lower Cholesky factor of the
correlation matrix.  With a ChiOfDim(d) radial the vector of log-risks
is exactly multivariate normal, so all margins are log-normal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DomainError, InvalidParams
from .numerics import (CorrelationMatrix, adaptive_quad, gamma_function,
                       std_normal_log_tail, std_normal_tail)
from .radial import RadialLaw, ScalingBundle, make_radial

__all__ = ["ModelSpec", "SampleBatch", "validate", "validate_inputs",
           "marginal_tail", "marginal_log_tail", "marginal_pdf", "sample",
           "SAMPLE_CHUNK"]

# Fixed chunk length for sample generation; part of the reproducibility
# contract (results depend on it, never on the worker count).
SAMPLE_CHUNK = 1 << 16


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A validated, index-normalized log-elliptical risk model.

    Construction sorts margins by decreasing exponent (ties broken by
    decreasing scale factor) so that margin 0 carries the largest
    exponent and, within that group, the largest scale factor.  The
    applied ``permutation`` maps stored index -> original index.
    """

    d: int
    lam: np.ndarray
    beta: np.ndarray
    gamma: float
    sigma: CorrelationMatrix
    radial: RadialLaw
    permutation: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.d < 1:
            raise InvalidParams(f"dimension must be >= 1, got {self.d}")
        lam = np.atleast_1d(np.asarray(self.lam, dtype=float))
        beta = np.atleast_1d(np.asarray(self.beta, dtype=float))
        problems = _margin_violations(self.d, lam, beta, self.gamma)
        if problems:
            raise InvalidParams("; ".join(problems))
        if self.sigma.dim != self.d:
            raise InvalidParams("sigma dimension does not match d")
        perm = np.lexsort((-lam, -beta))  # decreasing beta, then decreasing lam
        lam, beta = lam[perm].copy(), beta[perm].copy()
        sigma = self.sigma
        if not np.array_equal(perm, np.arange(self.d)):
            sigma = CorrelationMatrix(self.sigma.entries[np.ix_(perm, perm)])
        lam.setflags(write=False)
        beta.setflags(write=False)
        perm.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "permutation", perm)

    @classmethod
    def standard(cls, d: int, rho: float, radial: RadialLaw | None = None) -> "ModelSpec":
        """Equicorrelated standard model: lam = beta = gamma = 1."""
        from .numerics import equicorrelation

        return cls(d=d, lam=np.ones(d), beta=np.ones(d), gamma=1.0,
                   sigma=equicorrelation(d, rho),
                   radial=radial or make_radial("ChiOfDim", d))

    def scaling_bundle(self) -> ScalingBundle:
        return ScalingBundle(law=self.radial, lam=self.lam, beta=self.beta,
                             gamma=self.gamma)

    def is_gaussian_copula(self) -> bool:
        return self.radial.kind == "ChiOfDim" and self.radial.params[0] == self.d

    def with_sigma(self, sigma: CorrelationMatrix) -> "ModelSpec":
        return replace(self, sigma=sigma)


def _margin_violations(d: int, lam: np.ndarray, beta: np.ndarray,
                       gamma: float) -> list[str]:
    """Broken invariants of lam, beta and gamma: the ModelSpec constructor
    raises with them, both validators report them."""
    violations: list[str] = []
    for name, what, arr in (("lam", "scale factors", lam),
                            ("beta", "exponents", beta)):
        if arr.shape != (d,):
            violations.append(f"{name} must have length d={d}, got {arr.shape}")
        elif not np.all(np.isfinite(arr)):
            violations.append(f"{what} {name} must be finite")
        elif np.any(arr <= 0):
            violations.append(f"{what} {name} must be positive")
    if not math.isfinite(gamma):
        violations.append(f"gamma must be finite, got {gamma}")
    elif gamma <= 0:
        violations.append(f"gamma must be positive, got {gamma}")
    return violations


def validate(spec: ModelSpec, strict_mda: bool = False) -> list[str]:
    """Check every model invariant; the returned list is empty when valid.

    Construction already enforces most invariants, so this mainly serves
    configs deserialized from files and, with ``strict_mda``, runs the
    radial MDA probe as a smoke check.
    """
    violations: list[str] = []
    if spec.d < 1:
        violations.append("dimension must be >= 1")
    violations += _margin_violations(spec.d, spec.lam, spec.beta, spec.gamma)
    ent = spec.sigma.entries
    if not np.all(np.diag(ent) == 1.0):
        violations.append("sigma must have unit diagonal")
    if not np.allclose(ent, ent.T, atol=1e-12):
        violations.append("sigma must be symmetric")
    if np.any(np.diff(spec.beta) > 0):
        violations.append("exponents must be sorted in decreasing order")
    top = spec.beta == spec.beta[0]
    if np.any(spec.lam[top] > spec.lam[0]):
        violations.append("first margin must carry the largest scale factor "
                          "among those with the largest exponent")
    if strict_mda:
        from .radial import probe_mda_limit

        rows = probe_mda_limit(spec.radial, [8.0, 32.0], [-1.0, 0.0, 1.0])
        worst = max(r.rel_error for r in rows)
        if worst > 0.5:
            violations.append(
                f"radial law fails the Gumbel MDA probe (max rel error {worst:.2f})"
            )
    return violations


def validate_inputs(d, lam, beta, gamma, sigma, radial=None) -> list[str]:
    """Violation list for raw, possibly unconstructable, model ingredients.

    Unlike the ModelSpec constructor this never raises; every broken
    invariant is reported as a string.  An empty list means a ModelSpec
    can be built from the inputs.
    """
    violations: list[str] = []
    try:
        d = int(d)
    except (TypeError, ValueError):
        violations.append(f"dimension must be an integer, got {d!r}")
        return violations
    if d < 1:
        violations.append(f"dimension must be >= 1, got {d}")
        return violations
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    violations += _margin_violations(d, lam, beta, gamma)
    m = np.asarray(sigma, dtype=float)
    if m.ndim != 2 or m.shape != (d, d):
        violations.append(f"sigma must be a {d}x{d} matrix, got shape {m.shape}")
        return violations
    if not np.allclose(m, m.T, atol=1e-12):
        violations.append("sigma must be symmetric")
    if not np.all(np.diag(m) == 1.0):
        violations.append("sigma must have unit diagonal")
    off = m[~np.eye(d, dtype=bool)]
    if off.size and np.max(np.abs(off)) > 1.0:
        violations.append("off-diagonal correlations must lie in [-1, 1]")
    if not violations:
        try:
            np.linalg.cholesky(m)
        except np.linalg.LinAlgError:
            violations.append("sigma is not positive definite")
    return violations


# ---------------------------------------------------------------------------
# Marginals
# ---------------------------------------------------------------------------

def _check_margin(spec: ModelSpec, j: int, u: float) -> None:
    if not 0 <= j < spec.d:
        raise DomainError(f"margin index {j} out of range for d={spec.d}")
    if u <= 0.0:
        raise DomainError(f"marginal operations need u > 0, got {u}")


def marginal_log_tail(spec: ModelSpec, j: int, u: float) -> float:
    """log P(X_j > u); exact normal complement for the ChiOfDim radial."""
    _check_margin(spec, j, u)
    bg = spec.beta[j] * spec.gamma
    if spec.radial.kind == "ChiOfDim":
        z = math.log(u / spec.lam[j]) / bg
        return std_normal_log_tail(z)
    return math.log(marginal_tail(spec, j, u))


def marginal_tail(spec: ModelSpec, j: int, u: float) -> float:
    """P(X_j > u).

    ChiOfDim radial: the exact log-normal tail.  Other radial laws: the
    sphere-coordinate reduction P(X_j > u) = int_0^1 tail_R(w / t) h(t) dt
    with w = log(u/lam_j)/(beta_j*gamma), evaluated by adaptive quadrature
    after the substitution t = sin(s) that removes the d = 2 endpoint
    singularity of the coordinate density h.
    """
    _check_margin(spec, j, u)
    bg = spec.beta[j] * spec.gamma
    if spec.radial.kind == "ChiOfDim":
        return std_normal_tail(math.log(u / spec.lam[j]) / bg)
    w = math.log(u / spec.lam[j]) / bg
    if w <= 0.0:
        # Threshold at or below the scale factor: the coordinate integral
        # splits at 0; for negative w the positive-coordinate half always
        # exceeds, the negative half needs tail_R(w/t) with t < 0.
        return _marginal_tail_low(spec, w)
    d = spec.d
    law = spec.radial
    const = gamma_function(d / 2.0) / (math.sqrt(math.pi) * gamma_function((d - 1) / 2.0))

    def integrand(s: float) -> float:
        t = math.sin(s)
        if t <= 0.0:
            return 0.0
        return law.tail(w / t) * const * math.cos(s) ** (d - 2)

    return adaptive_quad(integrand, 0.0, 0.5 * math.pi, abs_tol=1e-300, rel_tol=1e-11)


def _marginal_tail_low(spec: ModelSpec, w: float) -> float:
    """P(R * T > w) for w <= 0, T a sphere coordinate (T symmetric)."""
    if w == 0.0:
        return 0.5
    d = spec.d
    law = spec.radial
    const = gamma_function(d / 2.0) / (math.sqrt(math.pi) * gamma_function((d - 1) / 2.0))

    # P(RT > w) = P(T > 0) + P(T < 0, R < w/T with T<0 -> R < |w|/|T|)
    def integrand(s: float) -> float:
        t = math.sin(s)
        if t <= 0.0:
            return 0.0
        return (1.0 - law.tail(-w / t)) * const * math.cos(s) ** (d - 2)

    below = adaptive_quad(integrand, 0.0, 0.5 * math.pi, abs_tol=1e-13, rel_tol=1e-11)
    return 0.5 + below


def marginal_pdf(spec: ModelSpec, j: int, u: float) -> float:
    """Density of X_j at u.

    Log-normal closed form for the ChiOfDim radial; otherwise a central
    difference of the marginal tail with relative step 1e-5 (the step
    balancing truncation against cancellation in double precision).
    """
    _check_margin(spec, j, u)
    bg = spec.beta[j] * spec.gamma
    if spec.radial.kind == "ChiOfDim":
        return math.exp(marginal_log_pdf(spec, j, u))
    h = 1e-5 * u
    return (marginal_tail(spec, j, u - h) - marginal_tail(spec, j, u + h)) / (2.0 * h)


def marginal_log_pdf(spec: ModelSpec, j: int, u: float) -> float:
    """log density of X_j at u (ChiOfDim radial only has a closed form)."""
    _check_margin(spec, j, u)
    bg = spec.beta[j] * spec.gamma
    if spec.radial.kind == "ChiOfDim":
        z = math.log(u / spec.lam[j]) / bg
        return -0.5 * z * z - math.log(u * bg) - 0.5 * math.log(2.0 * math.pi)
    return math.log(marginal_pdf(spec, j, u))


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class SampleBatch:
    """n draws of the risk vector, reproducible from (seed, n, spec)."""

    n: int
    x: np.ndarray
    seed: int
    u: float | None = None


def _draw_chunk(spec: ModelSpec, rng: np.random.Generator, m: int,
                chol: np.ndarray) -> np.ndarray:
    """m draws of the log-coordinates y (X = lam * exp(beta*gamma*y)): under
    the Gaussian copula y = e @ chol.T is exactly N(0, Sigma) for normals e;
    other radial laws then rescale each row to y = R * A * (e / |e|)."""
    e = rng.standard_normal((m, spec.d))
    y = e @ chol.T
    if not spec.is_gaussian_copula():
        norms = np.sqrt(np.einsum("ij,ij->i", e, e))
        y *= (spec.radial.sampler(rng, m) / norms)[:, None]
    return y


def sample(spec: ModelSpec, n: int, seed: int, u: float | None = None) -> SampleBatch:
    """Draw n risk vectors.

    Generation is chunked with per-chunk generators spawned from the
    seed, so any worker-level parallelism over chunks cannot change the
    result.
    """
    if n < 1:
        raise InvalidParams(f"sample size must be >= 1, got {n}")
    chol = spec.sigma.cholesky()
    bg = spec.beta * spec.gamma
    out = np.empty((n, spec.d))
    children = np.random.SeedSequence(seed).spawn((n + SAMPLE_CHUNK - 1) // SAMPLE_CHUNK)
    done = 0
    for child in children:
        m = min(SAMPLE_CHUNK, n - done)
        rng = np.random.default_rng(child)
        y = _draw_chunk(spec, rng, m, chol)
        out[done:done + m] = spec.lam * np.exp(bg * y)
        done += m
    out.setflags(write=False)
    return SampleBatch(n=n, x=out, seed=seed, u=u)
