"""Heuristic finite-threshold quality measures and table assembly.

``rho_hat`` and ``epsilon_measure`` quantify how far a threshold u is
from the asymptotic regime: rho_hat is the correlation at which the
pairwise validity inequality becomes tight, and epsilon solves the
finite-u version of the pair condition for a caller-supplied slack
constant c.  ``build_table`` assembles full benchmark rows (threshold,
both approximations, Monte Carlo, accuracy ratios, and the measures).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .asymptotics import VARIANT_DENSITY, approximate
from .errors import DomainError, InvalidParams
from .model import ModelSpec
from .montecarlo import ESTIMATOR_CONDITIONAL, mc_table
# perfbench/tracing.py wraps these bindings as layers; kept so that it
# does not report them absent.
from .montecarlo import conditional_max_mc, crude_mc  # noqa: F401
from .numerics import check_margin, check_threshold, is_real

__all__ = ["DiagnosticsRow", "McOptions", "rho_hat", "epsilon_measure",
           "EpsilonMeasure", "build_table"]


def rho_hat(spec: ModelSpec, j: int, u: float) -> float:
    """The correlation making the pair validity inequality an equality:

        1 - log(u / margin_scale_j(u)) / log(u)

    For standard log-normal margins this is 1 - log(log u)/log u.
    Needs a margin index j, u > 1 and u above the margin's scale factor.
    """
    check_margin(j, spec.d)
    check_threshold(u, 1.0)
    bundle = spec.scaling_bundle()
    es = bundle.margin_scale(j, u)
    return 1.0 - math.log(u / es) / math.log(u)


@dataclass(frozen=True)
class EpsilonMeasure:
    epsilon: float
    exp_epsilon: float


def epsilon_measure(spec: ModelSpec, i: int, j: int, u: float,
                    c: float = 1.0) -> EpsilonMeasure:
    """Solve the finite-u pair condition for epsilon.

    With theta = log(u)/log(u + e(u)) (e the exp-radial scaling), epsilon
    satisfies

        rho_ij + c sqrt(1-rho_ij^2) sqrt(1/theta^2 - 1)
            = (beta_j/beta_i) log(epsilon * margin_scale_i(u)) / log(u)

    and is returned together with exp(epsilon).  Either is inf where it
    overflows (exp(epsilon) from epsilon > 709.78: on table1 from c = 10
    at u = 1e3).  The constant c is the caller's choice; no single value
    reproduces the published epsilon columns (the one used there is not
    recoverable), but must be a finite real number.
    """
    check_margin(i, spec.d)
    check_margin(j, spec.d)
    if not (is_real(c) and math.isfinite(c)):
        raise DomainError(f"the epsilon measure needs a finite real c, got {c!r}")
    check_threshold(u, 1.0)
    rho = float(spec.sigma.entries[i, j])
    if not -1.0 < rho < 1.0:
        raise DomainError(f"|rho| must be < 1 for the epsilon measure, got {rho}")
    bundle = spec.scaling_bundle()
    lu = math.log(u)
    theta = lu / math.log(u + bundle.exp_scale(u))
    slack = math.sqrt(1.0 / (theta * theta) - 1.0)
    lhs = rho + c * math.sqrt(1.0 - rho * rho) * slack
    log_num = (spec.beta[i] / spec.beta[j]) * lu * lhs
    scale = bundle.margin_scale(i, u)
    try:
        eps = math.exp(log_num) / scale
    except OverflowError:  # the quotient may still be finite
        eps = _exp_or_inf(log_num - math.log(scale))
    return EpsilonMeasure(epsilon=eps, exp_epsilon=_exp_or_inf(eps))


def _exp_or_inf(x: float) -> float:
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _ratio(value: float, log_denominator: float) -> float:
    """value / e^log_denominator for value >= 0, taken in logs so that it
    is defined where the denominator underflows to 0 (0 for value 0, inf
    only past the float range)."""
    if value == 0.0:
        return 0.0
    return _exp_or_inf(math.log(value) - log_denominator)


@dataclass(frozen=True)
class DiagnosticsRow:
    """One benchmark-table row; mc fields are None when MC is skipped.
    ``log10_asympt1`` and ``log10_asympt2`` stay finite where the linear
    approximations underflow to 0, and the ratios (MC over each
    approximation) are taken from those logs, so they stay defined
    there."""

    u: float
    asympt1: float
    asympt2: float
    mc: float | None
    mc_stderr: float | None
    ratio1: float | None
    ratio2: float | None
    epsilon: float | None
    exp_epsilon: float | None
    rho_hat: float
    log10_asympt1: float
    log10_asympt2: float

    FIELDS = ("u", "asympt1", "asympt2", "mc", "mc_stderr", "ratio1",
              "ratio2", "epsilon", "exp_epsilon", "rho_hat", "log10_asympt1",
              "log10_asympt2")


@dataclass(frozen=True)
class McOptions:
    estimator: str = ESTIMATOR_CONDITIONAL
    n: int = 10**6
    seed: int = 1234567
    workers: int | None = None


def build_table(spec: ModelSpec, u_list: Sequence[float],
                mc_options: McOptions | None = None, c: float = 1.0,
                variant: str = VARIANT_DENSITY) -> list[DiagnosticsRow]:
    """Compute all table columns for each threshold.

    The second-order column uses the density variant by default.  The
    epsilon measure is evaluated for the pair (i, j) = (2, 1) (margins
    two and one) whenever d >= 2.  The MC column is ``mc_table``'s, so
    per-threshold seeds derive as seed XOR index.
    """
    if len(u_list) == 0:
        raise InvalidParams("u_list must not be empty")
    apxs = [approximate(spec, u, variant) for u in u_list]
    if mc_options is None:
        ests = [None] * len(u_list)
    else:
        ests = mc_table(spec, u_list, mc_options.n, mc_options.seed,
                        mc_options.estimator, mc_options.workers)
    rows = []
    for u, apx, est in zip(u_list, apxs, ests):
        mc_val = mc_err = ratio1 = ratio2 = None
        if est is not None:
            mc_val, mc_err = est.value, est.stderr
            ratio1 = _ratio(mc_val, apx.log_first_order)
            ratio2 = _ratio(mc_val, apx.log_second_order)
        if spec.d >= 2:
            em = epsilon_measure(spec, 1, 0, u, c)
            eps, eeps = em.epsilon, em.exp_epsilon
        else:
            eps = eeps = None
        rows.append(DiagnosticsRow(
            u=u, asympt1=apx.first_order, asympt2=apx.second_order,
            mc=mc_val, mc_stderr=mc_err, ratio1=ratio1, ratio2=ratio2,
            epsilon=eps, exp_epsilon=eeps, rho_hat=rho_hat(spec, 0, u),
            log10_asympt1=apx.log_first_order / math.log(10.0),
            log10_asympt2=apx.log_second_order / math.log(10.0),
        ))
    return rows
