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
reference tables.  ``approximate`` is the one way to compute the
correction: one array function, ``_log_pair_formula``, evaluates the term
for both variants.  The log-normal closed form is its specialisation to
the ChiOfDim(d) radial (c_j = (beta_j*gamma)^2 and the log-normal
density), and the equicorrelated form that of standard margins with a
constant correlation; the tests keep both as independent oracles.  All
products are assembled in log space and exponentiated once per term, so
thresholds far beyond the double underflow point remain usable through
the log accessors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import DomainError
from .model import (ModelSpec, _margin_w, coordinate_log_tail, marginal_log_pdf,
                    marginal_log_tail)
from .numerics import check_threshold

__all__ = [
    "VARIANT_DENSITY",
    "VARIANT_LIMIT",
    "TailApproximation",
    "AngularCheck",
    "first_order",
    "log_first_order",
    "approximate",
    "angular_reduction_check",
]

VARIANT_DENSITY = "density_form"
VARIANT_LIMIT = "limit_form"


@dataclass(frozen=True, eq=False)
class TailApproximation:
    """First-order value, per-pair corrections, and their total.

    ``log_pair_terms[j, i]`` is the log of the contribution of ordered
    pair (j, i), -inf on the diagonal, and ``pair_terms`` its exponential.
    ``second_order = first_order + correction`` holds exactly.  ``log_*``
    fields remain finite when the linear values underflow.
    """

    u: float
    first_order: float
    log_pair_terms: np.ndarray
    correction: float
    second_order: float
    variant: str
    log_first_order: float
    log_correction: float
    log_second_order: float

    @property
    def pair_terms(self) -> np.ndarray:
        return np.exp(self.log_pair_terms)


def log_first_order(spec: ModelSpec, u: float) -> float:
    """log of the summed marginal tails."""
    check_threshold(u)
    logs = [marginal_log_tail(spec, j, u) for j in range(spec.d)]
    return float(logsumexp(logs))


def first_order(spec: ModelSpec, u: float) -> float:
    """Sum of the marginal tails P(X_j > u)."""
    return math.exp(log_first_order(spec, u))


def _log_pair_formula(lam, beta, gamma: float, sigma, u: float, c,
                      log_q) -> np.ndarray:
    """The second-order pair formula: entry [j, i] is the log of the term
    of ordered pair (j, i), the diagonal is -inf.

    ``c[j]`` is margin j's scaling limit and ``log_q[j]`` the log of its
    quotient P(X_j > u)/margin_scale_j(u), or of its density at u.  Sigma
    is never factorised.
    """
    lam, beta, c, log_q = (np.asarray(a, dtype=float) for a in (lam, beta, c, log_q))
    s = np.asarray(sigma, dtype=float).T   # s[j, i] = sigma_ij
    ratio = beta / beta[:, None]           # ratio[j, i] = beta_i / beta_j
    out = (np.log(lam) - np.log(beta * gamma)[:, None]
           + 0.5 * c[:, None] * (1.0 - s * s) * ratio * ratio
           + ratio * s * np.log(u / lam)[:, None]
           + log_q[:, None])
    np.fill_diagonal(out, -math.inf)
    return out


def _log_pair_terms(spec: ModelSpec, u: float, variant: str) -> np.ndarray:
    """Log of every ordered-pair correction term; -inf on the diagonal."""
    check_threshold(u)
    if variant not in (VARIANT_DENSITY, VARIANT_LIMIT):
        raise DomainError(f"unknown variant {variant!r}")
    if spec.d == 1:
        return np.full((1, 1), -math.inf)
    margins = range(spec.d)
    c = [spec.margin_scale_limit(j) for j in margins]
    if variant == VARIANT_DENSITY:
        log_q = [marginal_log_pdf(spec, j, u) for j in margins]
    else:
        log_q = [marginal_log_tail(spec, j, u) - math.log(spec.margin_scale(j, u))
                 for j in margins]
    return _log_pair_formula(spec.lam, spec.beta, spec.gamma,
                             spec.sigma.entries, u, c, log_q)


def _log_total(log_terms: np.ndarray) -> float:
    """log of the sum of the finite terms; -inf when there are none."""
    finite = log_terms[np.isfinite(log_terms)]
    return float(logsumexp(finite)) if finite.size else -math.inf


def approximate(spec: ModelSpec, u: float,
                variant: str = VARIANT_DENSITY) -> TailApproximation:
    """Full first- plus second-order approximation with pair breakdown."""
    log_terms = _log_pair_terms(spec, u, variant)
    lf = log_first_order(spec, u)
    lc = _log_total(log_terms)
    fo = math.exp(lf)
    correction = math.exp(lc)
    return TailApproximation(
        u=u,
        first_order=fo,
        log_pair_terms=log_terms,
        correction=correction,
        second_order=fo + correction,
        variant=variant,
        log_first_order=lf,
        log_correction=lc,
        log_second_order=float(np.logaddexp(lf, lc)),
    )


# ---------------------------------------------------------------------------
# Sphere-coordinate reduction check
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AngularCheck:
    """Exact coordinate integral vs. its asymptotic reduction, each side
    also as its log; the ratio is formed from the logs."""

    u: float
    integral: float
    asymptotic: float
    log_integral: float
    log_asymptotic: float

    @property
    def ratio(self) -> float:
        return math.exp(self.log_integral - self.log_asymptotic)


def angular_reduction_check(spec: ModelSpec, j: int, u: float) -> AngularCheck:
    """Compare margin j's tail as a sphere-coordinate integral with its
    reduction, for d >= 2 and u > max(1, lam_j):

    integral   = int_0^1 P(lam_j * exp(R t beta_j gamma) > u) h(t) dt
    asymptotic = 2^((d-3)/2) Gamma(d/2)/sqrt(pi)
                  * (margin_scale(j, u) / (u log u))^((d-1)/2)
                  * P(lam_j * exp(R beta_j gamma) > u)

    Both sides are formed in log space.  The ratio tends to 1 as u grows;
    returning both sides keeps the evidence inspectable.
    """
    d = spec.d
    if d < 2:
        raise DomainError(f"the reduction needs d >= 2, got {d}")
    check_threshold(u, 1.0)            # the reduction divides by log u
    es = spec.margin_scale(j, u)       # DomainError unless u > lam_j
    w = _margin_w(spec, j, u)
    log_integral = coordinate_log_tail(spec.radial, d, w)
    lu = math.log(u)
    log_asym = ((d - 3) / 2.0 * math.log(2.0) + math.lgamma(d / 2.0)
                - 0.5 * math.log(math.pi)
                + (d - 1) / 2.0 * (math.log(es) - lu - math.log(lu))
                + spec.radial.log_tail(w))
    return AngularCheck(u=u, integral=math.exp(log_integral),
                        asymptotic=math.exp(log_asym), log_integral=log_integral,
                        log_asymptotic=log_asym)
