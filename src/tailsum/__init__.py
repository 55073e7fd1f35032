"""Tail asymptotics and rare-event Monte Carlo for sums of dependent
log-elliptical risks.

The library approximates P(X_1(u) + ... + X_d(u) > u) for risk vectors
of the form X_i = lam_i * exp(R * A * U)_i ** (beta_i * gamma), with R a
radial law in the Gumbel max-domain of attraction, U uniform on the unit
sphere and A a correlation factor.  It provides the first-order marginal
sum, a second-order pairwise correction (the log-normal closed form on a
Gaussian copula), variance-reduced Monte Carlo ground truth, validity
diagnostics and a CLI reproducing the reference benchmark tables.
"""

from .asymptotics import (VARIANT_DENSITY, VARIANT_LIMIT, AngularCheck,
                          TailApproximation, angular_reduction_check,
                          approximate, first_order)
from .diagnostics import (DiagnosticsRow, EpsilonMeasure, McOptions,
                          build_table, epsilon_measure, rho_hat)
from .errors import (DomainError, InvalidParams, NoFiniteLimit,
                     NotPositiveDefinite, QuadratureError, TailsumError,
                     Underflow, WrongRadialLaw)
from .model import (ModelSpec, SampleBatch, marginal_pdf, marginal_tail,
                    sample, validate_inputs)
from .montecarlo import (ESTIMATOR_CONDITIONAL, ESTIMATOR_CRUDE, MCEstimate,
                         conditional_max_mc, crude_mc, mc_table)
from .numerics import (CorrelationMatrix, equicorrelation, gamma_function,
                       lognormal_pdf, std_normal_log_tail, std_normal_tail)
from .radial import (MdaProbeRow, PairConditionRow, RadialLaw, ScalingBundle,
                     exp_scale, make_radial, probe_condition_rho,
                     probe_margin_mda_limit, probe_mda_limit,
                     probe_o_regular_variation)

__version__ = "0.1.0"

__all__ = [
    "VARIANT_DENSITY", "VARIANT_LIMIT", "AngularCheck", "TailApproximation",
    "angular_reduction_check", "approximate", "first_order",
    "DiagnosticsRow", "EpsilonMeasure", "McOptions", "build_table",
    "epsilon_measure", "rho_hat",
    "TailsumError", "DomainError", "InvalidParams", "NoFiniteLimit",
    "NotPositiveDefinite", "QuadratureError", "Underflow", "WrongRadialLaw",
    "ModelSpec", "SampleBatch", "marginal_pdf", "marginal_tail", "sample",
    "validate_inputs",
    "ESTIMATOR_CONDITIONAL", "ESTIMATOR_CRUDE", "MCEstimate",
    "conditional_max_mc", "crude_mc", "mc_table",
    "CorrelationMatrix", "equicorrelation", "gamma_function",
    "lognormal_pdf", "std_normal_log_tail", "std_normal_tail",
    "MdaProbeRow", "PairConditionRow", "RadialLaw", "ScalingBundle",
    "exp_scale", "make_radial", "probe_condition_rho",
    "probe_margin_mda_limit", "probe_mda_limit", "probe_o_regular_variation",
]
