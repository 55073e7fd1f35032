"""Special functions and small dense linear algebra used by the other modules.

Everything here is a pure function; tail quantities are also exposed in
log space so that values far below the smallest normal double (the deep
rows of the benchmark tables go to ~1e-43 and beyond) remain usable.
"""

from __future__ import annotations

import math
import numbers
import operator
import warnings
from dataclasses import dataclass, field

import numpy as np
from scipy import special as sp

from .errors import DomainError, InvalidParams, NotPositiveDefinite, QuadratureError

__all__ = [
    "CorrelationMatrix",
    "std_normal_tail",
    "std_normal_log_tail",
    "lognormal_pdf",
    "lognormal_log_pdf",
    "gamma_function",
    "equicorrelation",
    "adaptive_quad",
]

_SQRT2 = math.sqrt(2.0)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def check_real(value, name: str, lower: float = -math.inf) -> float:
    """value as a float; DomainError naming it unless it is a real number
    by ``is_real`` (not a string or a bool), finite and above ``lower``."""
    if not is_real(value):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    if not (math.isfinite(value) and value > lower):
        bound = ("" if lower == -math.inf else " and positive" if lower == 0.0
                 else f" and > {lower:g}")
        raise DomainError(f"{name} must be finite{bound}, got {value}")
    return float(value)


def check_threshold(u: float, lower: float = 0.0) -> None:
    """``check_real`` for the threshold u."""
    check_real(u, "threshold u", lower)


def check_margin(j, d: int) -> None:
    """DomainError unless j is a margin index: an integer by the integer
    rule, 0 <= j < d."""
    if not (is_integer_at_least(j, 0) and j < d):
        raise DomainError(f"margin index {j!r} out of range for d={d}")


def is_integer_at_least(value, low: int) -> bool:
    """The integer rule for counts: an integer of any type (numpy's too),
    never a float however integral nor a bool, and >= ``low``."""
    return (hasattr(type(value), "__index__") and not isinstance(value, bool)
            and operator.index(value) >= low)


def is_real(value) -> bool:
    """A real number of any type (numpy's too) that a float can hold, not
    a string or a bool: an integer past the float range (10**400) is not
    one, as float() would raise OverflowError on it."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        float(value)
    except OverflowError:
        return False
    return True


def check_draws(n, seed, least: int = 1) -> tuple[int, int]:
    """n and seed as Python ints, by the integer rule with n >= ``least``
    and seed >= 0; InvalidParams otherwise."""
    for name, value, low in (("n", n, least), ("seed", seed, 0)):
        if not is_integer_at_least(value, low):
            raise InvalidParams(f"need an integer {name} >= {low}, got {value!r}")
    return operator.index(n), operator.index(seed)


# Rounding slack for the symmetry and range of a correlation matrix read
# from text or permuted.
_SIGMA_TOL = 1e-12


def _margin_inputs(d: int, lam, beta,
                   gamma) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """lam and beta as 1-D float arrays, and the broken invariants of lam,
    beta and gamma for d margins: ModelSpec raises with them,
    ``validate_inputs`` reports them.  Every entry of lam and beta, and
    gamma, must be real by ``is_real`` before it is converted, so a string
    such as "1" is rejected, not parsed; a lam or beta with such an entry
    comes back as an object array."""
    violations: list[str] = []
    arrays = []
    for name, what, value in (("lam", "scale factors", lam),
                              ("beta", "exponents", beta)):
        arr = np.atleast_1d(np.asarray(value, dtype=object))
        if all(is_real(item) for item in arr.flat):
            arr = arr.astype(float)
            if arr.shape != (d,):
                violations.append(f"{name} must have length d={d}, got {arr.shape}")
            elif not np.all(np.isfinite(arr)):
                violations.append(f"{what} {name} must be finite")
            elif np.any(arr <= 0):
                violations.append(f"{what} {name} must be positive")
        else:
            violations.append(f"{what} {name} must be real numbers, got {value!r}")
        arrays.append(arr)
    if not is_real(gamma):
        violations.append(f"gamma must be a real number, got {gamma!r}")
    elif not math.isfinite(gamma):
        violations.append(f"gamma must be finite, got {gamma}")
    elif gamma <= 0:
        violations.append(f"gamma must be positive, got {gamma}")
    return arrays[0], arrays[1], violations


def _sigma_inputs(sigma, d: int | None = None) -> tuple[np.ndarray, list[str]]:
    """sigma, raw or a CorrelationMatrix, as a float array, and its broken
    invariants short of positive definiteness; ``d`` fixes the size, None
    any square one.  The shape, then ``is_real`` on every entry, are checked
    before the conversion, so a sigma failing them comes back unconverted."""
    sigma = sigma.entries if isinstance(sigma, CorrelationMatrix) else sigma
    size = "square" if d is None else f"{d}x{d}"
    try:
        m = np.asarray(sigma, dtype=object)
    except ValueError:  # arrays of uneven shape
        return sigma, [f"sigma must be a {size} matrix, got {sigma!r}"]
    if m.ndim != 2 or m.shape[0] != m.shape[1] or d not in (None, m.shape[0]):
        return m, [f"sigma must be a {size} matrix, got shape {m.shape}"]
    if not all(is_real(item) for item in m.flat):
        return m, [f"sigma entries must be real numbers, got {sigma!r}"]
    m = m.astype(float)
    if not np.all(np.isfinite(m)):
        return m, ["sigma entries must be finite"]
    violations: list[str] = []
    if np.any(np.abs(m - m.T) > _SIGMA_TOL):
        violations.append("sigma must be symmetric")
    if not np.all(np.diag(m) == 1.0):
        violations.append("sigma must have unit diagonal")
    if np.any(np.abs(m) > 1.0 + _SIGMA_TOL):
        violations.append("sigma entries must lie in [-1, 1]")
    return m, violations


def std_normal_tail(x: float) -> float:
    """P(N(0,1) > x), accurate in the far tail.

    Uses the complementary error function, so the relative error stays
    below ~1e-14 until the result leaves the normal double range
    (underflow to 0 starts only around x ~ 38.5).  For values beyond
    that use :func:`std_normal_log_tail`.
    """
    return 0.5 * math.erfc(check_real(x, "std_normal_tail's argument") / _SQRT2)


def std_normal_log_tail(x: float) -> float:
    """log P(N(0,1) > x); never underflows for any finite x."""
    return float(sp.log_ndtr(-check_real(x, "std_normal_log_tail's argument")))


def lognormal_pdf(u: float, mu: float = 0.0, sigma: float = 1.0) -> float:
    """Density at u of exp(N(mu, sigma^2))."""
    return math.exp(lognormal_log_pdf(u, mu, sigma))


def lognormal_log_pdf(u, mu=0.0, sigma=1.0):
    """Log-density at u of exp(N(mu, sigma^2)), elementwise over arrays
    that broadcast; every entry passes ``check_real``, u and sigma > 0."""
    u, mu, sigma = (np.vectorize(check_real, otypes=[float])(a, name, lower)
                    for a, name, lower in ((u, "u", 0.0), (mu, "mu", -math.inf),
                                           (sigma, "sigma", 0.0)))
    z = (np.log(u) - mu) / sigma
    return -0.5 * z * z - np.log(u * sigma) - _LOG_SQRT_2PI


def gamma_function(s: float) -> float:
    """Euler Gamma for s > 0.

    Gamma(s) passes the float range above s = 171.62 and below
    s = 5.6e-309; there it raises DomainError, never OverflowError or
    inf (``math.lgamma`` gives its logarithm)."""
    s = check_real(s, "gamma_function's argument", 0.0)
    try:
        return math.gamma(s)
    except OverflowError:
        raise DomainError(f"Gamma({s!r}) is past the float range; "
                          "math.lgamma gives its logarithm") from None


def adaptive_quad(f, a: float, b: float, *, abs_tol: float = 1e-12,
                  rel_tol: float = 1e-10, limit: int = 400, points=()) -> float:
    """Adaptive Gauss-Kronrod integration of f on [a, b], each piece
    between the increasing breakpoints ``points`` by its own rule.

    Raises QuadratureError when the summed error estimate exceeds the
    tolerance relative to the summed result, or is nan (guards against
    silent failure on integrands spanning hundreds of orders of
    magnitude).  That check is the verdict, so scipy's IntegrationWarning
    (roundoff detected, a tolerance not reached) is silenced.
    scipy.integrate is imported here, on first use: only models without
    a Gaussian copula need quadrature.
    """
    from scipy import integrate

    edges = [a, *points, b]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        pieces = [integrate.quad(f, lo, hi, epsabs=abs_tol, epsrel=rel_tol,
                                 limit=limit)
                  for lo, hi in zip(edges, edges[1:])]
    val, err = (math.fsum(column) for column in zip(*pieces))
    if not (err <= abs_tol + rel_tol * abs(val) or err <= 1e-3 * abs(val)):
        raise QuadratureError(
            f"quadrature error estimate {err:.3e} too large for result {val:.6e}"
        )
    return val


@dataclass(frozen=True, eq=False)
class CorrelationMatrix:
    """A symmetric positive-definite matrix with unit diagonal.

    Construction validates shape, real and finite entries, symmetry, the
    unit diagonal, the [-1, 1] range (``_sigma_inputs``, DomainError), and
    positive definiteness (via a Cholesky factorization, cached for reuse).
    """

    entries: np.ndarray
    _chol: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, problems = _sigma_inputs(self.entries)
        if problems:
            raise DomainError("; ".join(problems))
        m = 0.5 * (m + m.T)
        np.fill_diagonal(m, 1.0)
        m.setflags(write=False)
        try:
            chol = np.linalg.cholesky(m)
        except np.linalg.LinAlgError as exc:
            raise NotPositiveDefinite(
                "matrix is not positive definite (Cholesky pivot <= 0)"
            ) from exc
        chol.setflags(write=False)
        object.__setattr__(self, "entries", m)
        object.__setattr__(self, "_chol", chol)

    def cholesky(self) -> np.ndarray:
        """Lower-triangular L with L @ L.T equal to the matrix."""
        return self._chol


def equicorrelation(d: int, rho: float) -> CorrelationMatrix:
    """The d x d correlation matrix with every off-diagonal entry rho.

    d follows the integer rule and rho must be a real number
    (InvalidParams); rho must be finite, and for d > 1 lie in
    (-1/(d-1), 1), where the matrix is positive definite (DomainError).
    """
    if not is_integer_at_least(d, 1):
        raise InvalidParams(f"dimension must be an integer >= 1, got {d!r}")
    if not is_real(rho):
        raise InvalidParams(f"rho must be a real number, got {rho!r}")
    lo, hi = (-1.0 / (d - 1), 1.0) if d > 1 else (-math.inf, math.inf)
    if not lo < rho < hi:
        raise DomainError(f"equicorrelation with d={d} needs a finite rho "
                          f"in ({lo:.3f}, {hi:g}), got {rho!r}")
    m = np.full((d, d), float(rho))
    np.fill_diagonal(m, 1.0)
    return CorrelationMatrix(m)
