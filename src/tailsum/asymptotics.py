"""First- and second-order tail approximations for the aggregated risk.

The first-order approximation of P(X_1 + ... + X_d > u) is the sum of
the marginal tails.  The second-order correction adds, for every ordered
margin pair (j, i), a term

    lam_i / (beta_j*gamma)
      * exp( c_j * (1 - sigma_ij^2) * (beta_i/beta_j)^2 / 2 )
      * (u / lam_j)^(beta_i * sigma_ij / beta_j)
      * P(X_j > u) / margin_scale_j(u)

where c_j is the margin scaling limit.  The ``density_form`` variant
replaces the quotient P(X_j > u)/margin_scale_j(u) by the marginal
density at u (the two are asymptotically equivalent through the Mills
ratio); it is the default because it is the variant used to produce the
reference tables.  All products are assembled in log space and
exponentiated once per term, so thresholds far beyond the double
underflow point remain usable through the log accessors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError, WrongRadialLaw
from .model import ModelSpec, marginal_log_pdf, marginal_log_tail
from .numerics import gamma_function
from .radial import RadialLaw, ScalingBundle

__all__ = [
    "VARIANT_DENSITY",
    "VARIANT_LIMIT",
    "TailApproximation",
    "AngularCheck",
    "first_order",
    "log_first_order",
    "second_order_correction",
    "approximate",
    "lognormal_correction",
    "lognormal_pair_correction",
    "equicorrelated_correction",
    "log_equicorrelated_correction",
    "angular_reduction_check",
]

VARIANT_DENSITY = "density_form"
VARIANT_LIMIT = "limit_form"

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class TailApproximation:
    """First-order value, per-pair corrections, and their total.

    ``pair_terms[j, i]`` is the contribution of ordered pair (j, i);
    the diagonal is zero.  ``second_order = first_order + correction``
    holds exactly.  ``log_*`` fields remain finite when the linear
    values underflow.
    """

    u: float
    first_order: float
    pair_terms: np.ndarray
    correction: float
    second_order: float
    variant: str
    log_first_order: float
    log_correction: float
    log_second_order: float


def log_first_order(spec: ModelSpec, u: float) -> float:
    """log of the summed marginal tails."""
    if u <= 0.0:
        raise DomainError(f"first_order needs u > 0, got {u}")
    logs = [marginal_log_tail(spec, j, u) for j in range(spec.d)]
    return float(logsumexp(logs))


def first_order(spec: ModelSpec, u: float) -> float:
    """Sum of the marginal tails P(X_j > u)."""
    return math.exp(log_first_order(spec, u))


def _log_pair_terms(spec: ModelSpec, u: float, variant: str) -> np.ndarray:
    """Log of every ordered-pair correction term; -inf on the diagonal."""
    if u <= 0.0:
        raise DomainError(f"second-order correction needs u > 0, got {u}")
    if variant not in (VARIANT_DENSITY, VARIANT_LIMIT):
        raise DomainError(f"unknown variant {variant!r}")
    d = spec.d
    out = np.full((d, d), -math.inf)
    if d == 1:
        return out
    bundle = spec.scaling_bundle()
    sig = spec.sigma.entries
    for j in range(d):
        bg_j = spec.beta[j] * spec.gamma
        c_j = bundle.margin_scale_limit(j)
        log_u_lam = math.log(u / spec.lam[j])
        if variant == VARIANT_DENSITY:
            tail_part = marginal_log_pdf(spec, j, u)
        else:
            tail_part = marginal_log_tail(spec, j, u) - math.log(
                bundle.margin_scale(j, u))
        for i in range(d):
            if i == j:
                continue
            s_ij = sig[i, j]
            ratio = spec.beta[i] / spec.beta[j]
            out[j, i] = (
                math.log(spec.lam[i]) - math.log(bg_j)
                + 0.5 * c_j * (1.0 - s_ij * s_ij) * ratio * ratio
                + ratio * s_ij * log_u_lam
                + tail_part
            )
    return out


def second_order_correction(spec: ModelSpec, u: float,
                            variant: str = VARIANT_DENSITY) -> float:
    """The summed pairwise correction (the ``density_form`` default is
    the variant behind the reference tables)."""
    terms = _log_pair_terms(spec, u, variant)
    finite = terms[np.isfinite(terms)]
    if finite.size == 0:
        return 0.0
    return math.exp(float(logsumexp(finite)))


def approximate(spec: ModelSpec, u: float,
                variant: str = VARIANT_DENSITY) -> TailApproximation:
    """Full first- plus second-order approximation with pair breakdown."""
    if not (math.isfinite(u) and u > 0.0):
        raise DomainError(f"threshold u must be finite and positive, got {u}")
    log_terms = _log_pair_terms(spec, u, variant)
    lf = log_first_order(spec, u)
    finite = log_terms[np.isfinite(log_terms)]
    if finite.size:
        lc = float(logsumexp(finite))
        correction = math.exp(lc)
    else:
        lc = -math.inf
        correction = 0.0
    fo = math.exp(lf)
    return TailApproximation(
        u=u,
        first_order=fo,
        pair_terms=np.exp(log_terms),
        correction=correction,
        second_order=fo + correction,
        variant=variant,
        log_first_order=lf,
        log_correction=lc,
        log_second_order=float(np.logaddexp(lf, lc)),
    )


# ---------------------------------------------------------------------------
# Log-normal closed forms
# ---------------------------------------------------------------------------

def lognormal_pair_correction(lam, beta, gamma: float, sigma, u: float) -> float:
    """Closed-form correction for log-normal margins, on raw arrays.

    Per ordered pair (j, i):

        lam_i / (beta_j*gamma)^2
          * exp( (beta_i*gamma)^2 (1 - sigma_ij^2) / 2 )
          * (u/lam_j)^(beta_i sigma_ij / beta_j)
          * exp( -log(u/lam_j)^2 / (2 (beta_j*gamma)^2) ) / (u sqrt(2 pi))

    Never factorizes sigma, so it evaluates for any symmetric matrix
    with entries in [-1, 1].
    """
    return math.exp(log_lognormal_pair_correction(lam, beta, gamma, sigma, u))


def log_lognormal_pair_correction(lam, beta, gamma: float, sigma, u: float) -> float:
    if u <= 0.0:
        raise DomainError(f"needs u > 0, got {u}")
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    beta = np.atleast_1d(np.asarray(beta, dtype=float))
    sig = np.asarray(sigma, dtype=float)
    d = len(lam)
    if d == 1:
        return -math.inf
    logs = []
    for j in range(d):
        bg_j = beta[j] * gamma
        llam = math.log(u / lam[j])
        for i in range(d):
            if i == j:
                continue
            s_ij = sig[i, j]
            bg_i = beta[i] * gamma
            logs.append(
                math.log(lam[i]) - 2.0 * math.log(bg_j)
                + 0.5 * bg_i * bg_i * (1.0 - s_ij * s_ij)
                + (beta[i] * s_ij / beta[j]) * llam
                - llam * llam / (2.0 * bg_j * bg_j)
                - math.log(u) - _LOG_SQRT_2PI
            )
    return float(logsumexp(logs))


def lognormal_correction(spec: ModelSpec, u: float) -> float:
    """Closed-form correction for a model with log-normal margins.

    Valid for arbitrarily large u; requires the ChiOfDim radial.
    """
    return math.exp(log_lognormal_correction(spec, u))


def log_lognormal_correction(spec: ModelSpec, u: float) -> float:
    if spec.radial.kind != "ChiOfDim":
        raise WrongRadialLaw(
            "the log-normal closed form needs the ChiOfDim radial, "
            f"got {spec.radial.kind}"
        )
    return log_lognormal_pair_correction(spec.lam, spec.beta, spec.gamma,
                                         spec.sigma.entries, u)


def equicorrelated_correction(d: int, rho: float, u: float) -> float:
    """Correction for standard margins with constant correlation rho:

        d (d-1) exp((1 - rho^2)/2) / (sqrt(2 pi) u^(1-rho)) exp(-log(u)^2/2)
    """
    lg = log_equicorrelated_correction(d, rho, u)
    return 0.0 if lg == -math.inf else math.exp(lg)


def log_equicorrelated_correction(d: int, rho: float, u: float) -> float:
    if d < 1:
        raise DomainError(f"dimension must be >= 1, got {d}")
    if not -1.0 < rho < 1.0:
        raise DomainError(f"rho must lie in (-1, 1), got {rho}")
    if u <= 1.0:
        raise DomainError(f"needs u > 1, got {u}")
    if d == 1:
        return -math.inf
    lu = math.log(u)
    return (math.log(d * (d - 1)) + 0.5 * (1.0 - rho * rho)
            - (1.0 - rho) * lu - 0.5 * lu * lu - _LOG_SQRT_2PI)


# ---------------------------------------------------------------------------
# Sphere-coordinate reduction check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularCheck:
    """Exact coordinate integral vs. its asymptotic reduction."""

    u: float
    integral: float
    asymptotic: float

    @property
    def ratio(self) -> float:
        return self.integral / self.asymptotic


def angular_reduction_check(law: RadialLaw, lam: float, beta: float,
                            gamma: float, d: int, u: float) -> AngularCheck:
    """Compare the marginal-tail coordinate integral with its reduction.

    integral   = int_0^1 P(lam * exp(R t beta gamma) > u) h(t) dt
    asymptotic = 2^((d-3)/2) Gamma(d/2)/sqrt(pi)
                  * (margin_scale(u) / (u log u))^((d-1)/2)
                  * P(lam * exp(R beta gamma) > u)

    The ratio tends to 1 as u grows; returning both sides keeps the
    evidence inspectable.
    """
    from .numerics import adaptive_quad

    if d < 2:
        raise DomainError(f"the reduction needs d >= 2, got {d}")
    w = math.log(u / lam) / (beta * gamma)
    if w <= 0.0:
        raise DomainError("threshold must exceed the scale factor")
    const = gamma_function(d / 2.0) / (math.sqrt(math.pi) * gamma_function((d - 1) / 2.0))

    def integrand(s: float) -> float:
        t = math.sin(s)
        if t <= 0.0:
            return 0.0
        return law.tail(w / t) * const * math.cos(s) ** (d - 2)

    integral = adaptive_quad(integrand, 0.0, 0.5 * math.pi,
                             abs_tol=1e-300, rel_tol=1e-11)
    bundle = ScalingBundle(law=law, lam=[lam], beta=[beta], gamma=gamma)
    es = bundle.margin_scale(0, u)
    prefac = 2.0 ** ((d - 3) / 2.0) * gamma_function(d / 2.0) / math.sqrt(math.pi)
    asym = prefac * (es / (u * math.log(u))) ** ((d - 1) / 2.0) * math.exp(law.log_tail(w))
    return AngularCheck(u=u, integral=integral, asymptotic=asym)
