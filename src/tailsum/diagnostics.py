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
from .errors import DomainError
from .model import ModelSpec
from .montecarlo import ESTIMATOR_CONDITIONAL, MCEstimate, _U64, get_estimator
# perfbench/tracing.py wraps these bindings as layers; kept so that it
# does not report them absent.
from .montecarlo import conditional_max_mc, crude_mc  # noqa: F401
from .numerics import check_threshold

__all__ = ["DiagnosticsRow", "McOptions", "rho_hat", "epsilon_measure",
           "EpsilonMeasure", "build_table"]


def rho_hat(spec: ModelSpec, j: int, u: float) -> float:
    """The correlation making the pair validity inequality an equality:

        1 - log(u / margin_scale_j(u)) / log(u)

    For standard log-normal margins this is 1 - log(log u)/log u.
    Needs u > 1 and u above the margin's scale factor.
    """
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

    and is returned together with exp(epsilon).  The constant c is the
    caller's choice; no single value reproduces the published epsilon
    columns (the one used there is not recoverable).
    """
    check_threshold(u, 1.0)
    rho = float(spec.sigma.entries[i, j])
    if not -1.0 < rho < 1.0:
        raise DomainError(f"|rho| must be < 1 for the epsilon measure, got {rho}")
    bundle = spec.scaling_bundle()
    lu = math.log(u)
    theta = lu / math.log(u + bundle.exp_scale(u))
    slack = math.sqrt(1.0 / (theta * theta) - 1.0)
    lhs = rho + c * math.sqrt(1.0 - rho * rho) * slack
    eps = math.exp((spec.beta[i] / spec.beta[j]) * lu * lhs) / bundle.margin_scale(i, u)
    return EpsilonMeasure(epsilon=eps, exp_epsilon=math.exp(eps))


@dataclass(frozen=True)
class DiagnosticsRow:
    """One benchmark-table row; mc fields are None when MC is skipped."""

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

    FIELDS = ("u", "asympt1", "asympt2", "mc", "mc_stderr", "ratio1",
              "ratio2", "epsilon", "exp_epsilon", "rho_hat")


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
    two and one) whenever d >= 2.  Per-threshold MC seeds derive as
    seed XOR index, matching ``mc_table``.
    """
    if len(u_list) == 0:
        raise DomainError("u_list must not be empty")
    rows = []
    for idx, u in enumerate(u_list):
        apx = approximate(spec, u, variant)
        mc_val = mc_err = ratio1 = ratio2 = None
        if mc_options is not None:
            run = get_estimator(mc_options.estimator)
            est: MCEstimate = run(spec, u, mc_options.n,
                                  (mc_options.seed ^ idx) & _U64,
                                  workers=mc_options.workers)
            mc_val, mc_err = est.value, est.stderr
            ratio1 = mc_val / apx.first_order
            ratio2 = mc_val / apx.second_order
        if spec.d >= 2:
            em = epsilon_measure(spec, 1, 0, u, c)
            eps, eeps = em.epsilon, em.exp_epsilon
        else:
            eps = eeps = None
        rows.append(DiagnosticsRow(
            u=u, asympt1=apx.first_order, asympt2=apx.second_order,
            mc=mc_val, mc_stderr=mc_err, ratio1=ratio1, ratio2=ratio2,
            epsilon=eps, exp_epsilon=eeps, rho_hat=rho_hat(spec, 0, u),
        ))
    return rows
