"""Radial laws in the Gumbel max-domain of attraction and derived scalings.

A radial law R feeds the stochastic representation exp(R * A * U) of the
risk vector.  Each built-in law carries its log-tail, log-density, a
seeded sampler, a scaling function chosen as the exact hazard-rate
reciprocal tail/density, which is a valid Gumbel scaling wherever the law
is in the Gumbel domain, and the limit kappa = lim r * scaling(r).

Three kinds are provided:

* ``ChiOfDim(d)``   -- R = sqrt(chi-square with d degrees of freedom); the
  law for which exp(R * A * U) is multivariate log-normal.  For d = 2 the
  tail is exp(-r^2/2) and the scaling is exactly 1/r; kappa = 1.
* ``WeibullTail(tau, scale)`` -- tail exp(-(r/scale)^tau).  tau = 1 is the
  exponential law; ``WeibullTail(2, sqrt(2))`` coincides with ChiOfDim(2).
  kappa is 0 for tau > 2, scale^2/2 for tau = 2 and infinite for tau < 2.
* ``LognormalLogRadius``      -- R itself log-normal.  In the Gumbel
  domain, but its induced scaling grows superlinearly: kappa is infinite
  and ``margin_scale_limit`` raises NoFiniteLimit.

The derived scalings follow the threshold transform of the model: with
``scaling`` the radial scaling function b, ``exp_scale(u) = u * b(log u)``
is the scaling of exp(R), and ``ScalingBundle.margin_scale`` applies the
per-margin power/scale transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, Sequence

import numpy as np
from scipy import special as sp

from .errors import DomainError, InvalidParams, NoFiniteLimit
from .numerics import (_LOG_SQRT_2PI, _margin_inputs, _sigma_inputs, check_margin,
                       check_real, check_threshold, is_real, std_normal_log_tail)

__all__ = [
    "RadialLaw",
    "ScalingBundle",
    "MdaProbeRow",
    "PairConditionRow",
    "make_radial",
    "exp_scale",
    "probe_mda_limit",
    "probe_margin_mda_limit",
    "probe_condition_rho",
    "probe_o_regular_variation",
]


@dataclass(frozen=True, eq=False)
class RadialLaw:
    """A positive radial variable: log-tail, log-density, scaling, sampler.

    ``scaling`` is the Gumbel auxiliary function b: the tail satisfies
    tail(u + x*b(u))/tail(u) -> exp(-x).  ``scaling_limit`` is
    kappa = lim r * b(r), possibly 0 or inf.  ``sampler(rng, size)`` draws
    from the law using the supplied numpy Generator.  The built-in laws'
    functions of r raise DomainError unless r passes ``check_real`` (and
    r > 0 for ``scaling``).
    """

    kind: str
    params: tuple
    log_tail: Callable[[float], float]
    log_density: Callable[[float], float]
    scaling: Callable[[float], float]
    scaling_limit: float
    sampler: Callable[[np.random.Generator, int], np.ndarray]

    def tail(self, r: float) -> float:
        return math.exp(self.log_tail(r))

    def density(self, r: float) -> float:
        return math.exp(self.log_density(r))

    def __repr__(self) -> str:  # params carry all identity
        inner = ", ".join(repr(p) for p in self.params)
        return f"{self.kind}({inner})"


# ---------------------------------------------------------------------------
# Built-in laws
# ---------------------------------------------------------------------------

def _chi_log_tail(r: float, d: int) -> float:
    """log P(sqrt(chi2_d) > r), stable for arbitrarily large r."""
    if check_real(r, "radius r") <= 0.0:
        return 0.0
    k = d / 2.0
    x = 0.5 * r * r
    if x <= 700.0:
        return math.log(float(sp.gammaincc(k, x)))
    # Asymptotic series Q(k,x) ~ x^{k-1} e^{-x}/Gamma(k) * (1 + (k-1)/x + ...)
    return -x + (k - 1.0) * math.log(x) - math.lgamma(k) + math.log(_chi_series(k, x))


def _chi_series(k: float, x: float) -> float:
    total, term, m = 1.0, 1.0, 0
    while m < 30:
        term *= (k - 1.0 - m) / x
        if abs(term) < 1e-17 * total:
            break
        total += term
        m += 1
    return total


def _chi_log_density(r: float, d: int) -> float:
    if check_real(r, "radius r") <= 0.0:
        return -math.inf
    k = d / 2.0
    return (d - 1.0) * math.log(r) - 0.5 * r * r - (k - 1.0) * math.log(2.0) - math.lgamma(k)


def _make_chi(d: int) -> RadialLaw:
    if not 1 <= d < math.inf or d != int(d):
        raise InvalidParams(f"ChiOfDim needs an integer dimension >= 1, got {d}")
    d = int(d)

    log_tail = partial(_chi_log_tail, d=d)
    log_density = partial(_chi_log_density, d=d)
    if d == 2:
        def scaling(r: float) -> float:
            return 1.0 / check_real(r, "radius r", 0.0)
    else:
        def scaling(r: float) -> float:
            r = check_real(r, "radius r", 0.0)
            x = 0.5 * r * r
            k = d / 2.0
            if x > 700.0:
                return _chi_series(k, x) / r
            return math.exp(_chi_log_tail(r, d) - _chi_log_density(r, d))

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return np.sqrt(rng.chisquare(d, size))

    # b(r) = (1 + O(1/r^2)) / r
    return RadialLaw("ChiOfDim", (d,), log_tail, log_density, scaling, 1.0, sampler)


def _make_weibull(tau: float, scale: float = 1.0) -> RadialLaw:
    if not (0.0 < tau < math.inf and 0.0 < scale < math.inf):
        raise InvalidParams("WeibullTail needs finite tau > 0 and scale > 0, "
                            f"got ({tau}, {scale})")

    def log_tail(r: float) -> float:
        return -((r / scale) ** tau) if check_real(r, "radius r") > 0 else 0.0

    def log_density(r: float) -> float:
        if check_real(r, "radius r") <= 0.0:
            return -math.inf
        return math.log(tau / scale) + (tau - 1.0) * math.log(r / scale) + log_tail(r)

    def scaling(r: float) -> float:
        return scale**tau * check_real(r, "radius r", 0.0) ** (1.0 - tau) / tau

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return scale * rng.standard_exponential(size) ** (1.0 / tau)

    # r * b(r) = scale^tau * r^(2 - tau) / tau
    kappa = 0.0 if tau > 2.0 else 0.5 * scale * scale if tau == 2.0 else math.inf
    return RadialLaw("WeibullTail", (tau, scale), log_tail, log_density, scaling,
                     kappa, sampler)


def _make_lognormal_log_radius() -> RadialLaw:
    def log_tail(r: float) -> float:
        r = check_real(r, "radius r")
        return std_normal_log_tail(math.log(r)) if r > 0 else 0.0

    def log_density(r: float) -> float:
        # numerics.lognormal_log_pdf in scalar math: the quadrature calls
        # it once per node
        if check_real(r, "radius r") <= 0:
            return -math.inf
        z = math.log(r)
        return -0.5 * z * z - z - _LOG_SQRT_2PI

    def scaling(r: float) -> float:
        check_real(r, "radius r", 0.0)
        return math.exp(log_tail(r) - log_density(r))

    def sampler(rng: np.random.Generator, size: int) -> np.ndarray:
        return np.exp(rng.standard_normal(size))

    # b(r) ~ r / log r, so r * b(r) grows without bound
    return RadialLaw("LognormalLogRadius", (), log_tail, log_density, scaling,
                     math.inf, sampler)


def make_radial(kind: str, *params) -> RadialLaw:
    """Build one of the supported radial laws.

    kind is one of "ChiOfDim" (one integer parameter), "WeibullTail"
    (tau and optional scale) or "LognormalLogRadius" (no parameters).
    Every parameter must be a real number, not a string or a bool.
    """
    for param in params:
        if not is_real(param):
            raise InvalidParams(f"{kind} parameters must be real numbers, "
                                f"got {param!r}")
    if kind == "ChiOfDim":
        if len(params) != 1:
            raise InvalidParams("ChiOfDim takes exactly one parameter (the dimension)")
        return _make_chi(params[0])
    if kind == "WeibullTail":
        if len(params) not in (1, 2):
            raise InvalidParams("WeibullTail takes tau and an optional scale")
        return _make_weibull(*[float(p) for p in params])
    if kind == "LognormalLogRadius":
        if params:
            raise InvalidParams("LognormalLogRadius takes no parameters")
        return _make_lognormal_log_radius()
    raise InvalidParams(f"unknown radial law kind {kind!r}")


# ---------------------------------------------------------------------------
# Derived scalings
# ---------------------------------------------------------------------------

def exp_scale(u: float, law: RadialLaw) -> float:
    """Scaling function of exp(R): u * scaling(log u), for u > 1."""
    check_threshold(u, 1.0)
    return u * law.scaling(math.log(u))


@dataclass(frozen=True, eq=False)
class ScalingBundle:
    """Per-margin scaling functions derived from a radial law.

    Margins are indexed 0..d-1 and are described by positive scale
    factors ``lam``, positive exponents ``beta`` and a common positive
    ``gamma``: margin j is lam[j] * exp(R * A * U)_j ** (beta[j]*gamma).
    """

    law: RadialLaw
    lam: np.ndarray
    beta: np.ndarray
    gamma: float

    def __post_init__(self):
        lam, beta, problems = _margin_inputs(None, self.lam, self.beta,
                                             self.gamma)
        if not isinstance(self.law, RadialLaw):
            problems.append(f"law must be a RadialLaw, got {self.law!r}")
        if problems:
            raise InvalidParams("; ".join(problems))
        lam.setflags(write=False)
        beta.setflags(write=False)
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "beta", beta)

    def exp_scale(self, u: float) -> float:
        return exp_scale(u, self.law)

    def margin_scale(self, j: int, u: float) -> float:
        """Scaling of margin j at threshold u.

        beta_j*gamma * u * e(v) / v  with  v = (u/lam_j)^(1/(beta_j*gamma)),
        where e is the exp(R) scaling, so e(v) / v = b(log v) for the
        radial scaling b.  Defined for v > 1, i.e. u > lam_j.  Formed from
        log v, never v itself, so it stays finite where v overflows.
        """
        check_margin(j, len(self.lam))
        if check_real(u, "threshold u") <= self.lam[j]:
            raise DomainError(
                f"margin_scale needs u > lam_j (margin {j}: u={u}, lam={self.lam[j]})")
        bg = self.beta[j] * self.gamma
        return bg * u * self.law.scaling(math.log(u / self.lam[j]) / bg)

    def margin_scale_limit(self, j: int) -> float:
        """Limit c_j = (gamma*beta_j)^2 * kappa of log(u) * margin_scale(j, u)/u,
        kappa the law's ``scaling_limit``: the quotient is beta_j*gamma *
        log(u) * b(log v) with log v = log(u/lam_j)/(beta_j*gamma), so lam_j
        drops out.  NoFiniteLimit naming the law when kappa is infinite."""
        kappa = self.law.scaling_limit
        if math.isinf(kappa):
            raise NoFiniteLimit(
                f"the {self.law!r} radial law has r * b(r) -> inf, so the "
                f"margin scaling limit c_{j} does not exist")
        return (self.gamma * self.beta[j]) ** 2 * kappa


# ---------------------------------------------------------------------------
# Condition probes.  Probes return measured numbers, never verdicts; the
# asymptotic conditions can only be sampled at finite u.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MdaProbeRow:
    u: float
    x: float
    ratio: float
    target: float

    @property
    def rel_error(self) -> float:
        return abs(self.ratio - self.target) / self.target


@dataclass(frozen=True)
class PairConditionRow:
    j: int
    i: int
    lhs: float
    rhs: float

    @property
    def margin(self) -> float:
        """lhs - rhs; negative means the pair condition holds at this u."""
        return self.lhs - self.rhs


def _mda_rows(u_grid: Sequence[float], x_grid: Sequence[float],
              scale: Callable[[float], float],
              log_tail: Callable[[float], float]) -> list[MdaProbeRow]:
    """exp(log_tail(u + x*scale(u)) - log_tail(u)) against exp(-x)."""
    rows = []
    for u in u_grid:
        b = scale(u)
        for x in x_grid:
            shifted = u + check_real(x, "x") * b
            if shifted <= 0:
                continue
            ratio = math.exp(log_tail(shifted) - log_tail(u))
            rows.append(MdaProbeRow(u=u, x=x, ratio=ratio, target=math.exp(-x)))
    return rows


def probe_mda_limit(law: RadialLaw, u_grid: Sequence[float],
                    x_grid: Sequence[float]) -> list[MdaProbeRow]:
    """tail(u + x*scaling(u)) / tail(u) against exp(-x) on a grid."""
    return _mda_rows(u_grid, x_grid, law.scaling, law.log_tail)


def probe_margin_mda_limit(bundle: ScalingBundle, j: int, u_grid: Sequence[float],
                           x_grid: Sequence[float],
                           log_tail: Callable[[float], float]) -> list[MdaProbeRow]:
    """P(X_j > u + x*margin_scale) / P(X_j > u) against exp(-x).

    ``log_tail`` is the margin's log tail function (the model module
    provides it); the bundle supplies the margin scaling.
    """
    return _mda_rows(u_grid, x_grid, lambda u: bundle.margin_scale(j, u),
                     log_tail)


def probe_condition_rho(sigma: np.ndarray, bundle: ScalingBundle, u: float,
                        c: float = 1.0, epsilon: float = 1.0) -> list[PairConditionRow]:
    """Margins of the pairwise correlation condition at threshold u.

    For every ordered pair (i, j), i != j, evaluates

        lhs = sigma_ij + c * sqrt((1 - sigma_ij^2) / log u)
        rhs = (beta_j / beta_i) * log(epsilon * margin_scale(i, u)) / log u

    The condition behind the first-order expansion requires lhs <= rhs
    ultimately; a negative margin is evidence it holds at this u.
    """
    check_threshold(u, 1.0)
    check_real(c, "c")
    check_real(epsilon, "epsilon", 0.0)
    lu = math.log(u)
    d = len(bundle.lam)
    sigma, problems = _sigma_inputs(sigma, d)
    if problems:
        raise InvalidParams("; ".join(problems))
    rows = []
    for j in range(d):
        for i in range(d):
            if i == j:
                continue
            sij = float(sigma[i, j])
            lhs = sij + c * math.sqrt((1.0 - sij * sij) / lu)
            rhs = (bundle.beta[j] / bundle.beta[i]) * math.log(
                epsilon * bundle.margin_scale(i, u)
            ) / lu
            rows.append(PairConditionRow(j=j, i=i, lhs=lhs, rhs=rhs))
    return rows


def probe_o_regular_variation(law: RadialLaw, u_grid: Sequence[float],
                              lam: float = 1.01) -> list[float]:
    """|exp_scale(lam*u)/exp_scale(u) - 1| over the grid (O-variation check)."""
    check_real(lam, "lam", 0.0)
    grid = [check_real(u, "threshold u", 1.0) for u in u_grid]
    return [abs(exp_scale(lam * u, law) / exp_scale(u, law) - 1.0) for u in grid]
