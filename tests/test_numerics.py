"""Special-function and linear-algebra contracts.

High-precision expectations are derived from an mpmath oracle evaluated
in the test itself (50 decimal digits), never from the implementation.
"""

import math
import re
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from tailsum import (CorrelationMatrix, DomainError, InvalidParams, NotPositiveDefinite,
                     TailsumError, equicorrelation, gamma_function, lognormal_pdf,
                     make_radial, std_normal_log_tail, std_normal_tail)
from tailsum.model import coordinate_tail
from tailsum.numerics import is_real

mp.mp.dps = 50


@pytest.mark.parametrize("value, real", [
    (1, True), (2.5, True), (np.float32(2.5), True), (np.int64(3), True),
    (10**308, True), (math.inf, True), (Fraction(1, 3), True),
    (10**400, False), (-10**400, False), (Fraction(10**400, 3), False),
    (True, False), ("1", False), (None, False), (1j, False)],
    ids=["int", "float", "float32", "int64", "1e308", "inf", "fraction",
         "1e400", "-1e400", "fraction-1e400", "bool", "str", "none", "complex"])
def test_is_real_takes_what_a_float_holds(value, real):
    # an integer past the float range is not real: float() raises on it
    assert is_real(value) is real


def oracle_tail(x: float) -> float:
    return float(mp.erfc(x / mp.sqrt(2)) / 2)


class TestStdNormalTail:
    def test_symmetry_at_zero(self):
        assert std_normal_tail(0.0) == pytest.approx(0.5, abs=1e-15)

    @pytest.mark.parametrize("x", [math.log(10), math.log(100), math.log(1000)])
    def test_against_high_precision_oracle(self, x):
        assert std_normal_tail(x) == pytest.approx(oracle_tail(x), rel=1e-13)

    def test_log10_value_frozen(self):
        # oracle: erfc(log(10)/sqrt 2)/2 at 50 digits
        assert std_normal_tail(math.log(10)) == pytest.approx(0.010651099341672818, rel=1e-12)

    def test_deep_tail_accuracy(self):
        # relative error < 1e-10 up to x = 37 (values still normal doubles)
        for x in [10.0, 20.0, 30.0, 37.0]:
            assert std_normal_tail(x) == pytest.approx(oracle_tail(x), rel=1e-10)

    def test_no_premature_underflow(self):
        assert std_normal_tail(37.5) > 0.0

    def test_log_tail_beyond_underflow(self):
        for x in [40.0, 100.0, 1000.0]:
            expected = float(mp.log(mp.erfc(x / mp.sqrt(2)) / 2))
            assert std_normal_log_tail(x) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(-8.0, 8.0))
    def test_tail_pair_sums_to_one(self, x):
        assert std_normal_tail(x) + std_normal_tail(-x) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [10.0, 12.0, 15.0, 20.0, 30.0, 38.0])
    def test_mills_ratio(self, x):
        # Phibar(x) * x * sqrt(2 pi) * exp(x^2/2) -> 1, assembled in log space
        val = math.exp(std_normal_log_tail(x) + math.log(x)
                       + 0.5 * math.log(2 * math.pi) + 0.5 * x * x)
        assert abs(val - 1.0) <= 1.0 / (x * x)

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            std_normal_tail(float("nan"))


class TestLognormalPdf:
    def test_value_at_mode_of_log(self):
        assert lognormal_pdf(1.0, 0.0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-14)

    def test_at_ten_against_cdf_derivative(self):
        # derivative of the log-normal CDF at 10 via mpmath differentiation
        f = lambda t: mp.erfc(-mp.log(t) / mp.sqrt(2)) / 2
        expected = float(mp.diff(f, mp.mpf(10)))
        assert lognormal_pdf(10.0) == pytest.approx(expected, rel=1e-10)
        assert lognormal_pdf(10.0) == pytest.approx(2.8159018901526347e-03, rel=1e-12)

    def test_shifted_mean(self):
        assert lognormal_pdf(math.e, 1.0, 1.0) == pytest.approx(
            (1.0 / math.e) / math.sqrt(2 * math.pi), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            lognormal_pdf(0.0)
        with pytest.raises(DomainError):
            lognormal_pdf(-1.0)

    def test_log_pdf_takes_arrays(self):
        from tailsum.numerics import lognormal_log_pdf

        u = np.array([0.5, 1.0, 10.0, 1e12])
        mu = np.array([0.0, 1.0, -0.7, 2.0])
        sigma = np.array([1.0, 0.5, 2.0, 0.04])
        out = lognormal_log_pdf(u, mu, sigma)
        assert out.shape == (4,)
        for i in range(4):
            assert out[i] == lognormal_log_pdf(u[i], mu[i], sigma[i])
            assert math.exp(out[i]) == pytest.approx(
                lognormal_pdf(u[i], mu[i], sigma[i]), rel=1e-15)
        with pytest.raises(DomainError):
            lognormal_log_pdf(np.array([1.0, 0.0]))
        with pytest.raises(DomainError):
            lognormal_log_pdf(1.0, 0.0, np.array([1.0, -1.0]))


class TestGammaFunction:
    @pytest.mark.parametrize("s,expected", [(1.0, 1.0), (0.5, math.sqrt(math.pi)),
                                            (5.0, 24.0)])
    def test_classic_values(self, s, expected):
        assert gamma_function(s) == pytest.approx(expected, rel=1e-14)

    def test_factorial_chain(self):
        assert gamma_function(50.0) == pytest.approx(float(math.factorial(49)), rel=1e-12)

    @given(st.floats(0.05, 50.0))
    def test_against_mpmath(self, s):
        assert gamma_function(s) == pytest.approx(float(mp.gamma(s)), rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_function(0.0)
        with pytest.raises(DomainError):
            gamma_function(-2.0)

    @pytest.mark.parametrize("s", [171.63, 200.0, 1e300, 5.5e-309, 5e-324])
    def test_past_the_float_range(self, s):
        # Gamma(s) overflows above 171.62 and below 5.6e-309: DomainError,
        # not math's OverflowError
        with pytest.raises(DomainError, match="past the float range"):
            gamma_function(s)

    @pytest.mark.parametrize("s", [171.62, 5.6e-309])
    def test_finite_at_the_edges_of_the_float_range(self, s):
        assert math.isfinite(gamma_function(s))
        assert gamma_function(s) > 1e308


class TestSphereMarginalDensity:
    # The sphere-coordinate density h(t) = Gamma(d/2)/(sqrt(pi)
    # Gamma((d-1)/2)) (1 - t^2)^((d-3)/2) lives in model.coordinate_tail;
    # these tests check it through P(R * T > w) for an exponential R,
    # whose tail exp(-w/t) is smooth in t.
    EXPONENTIAL = make_radial("WeibullTail", 1.0)

    @staticmethod
    def oracle(w, h):
        return float(mp.quad(lambda t: mp.exp(-mp.mpf(w) / t) * h(t), [0, 1]))

    def test_constant_for_d3(self):
        # h = 1/2, so P(R T > w) = E_2(w)/2 for w > 0
        law = self.EXPONENTIAL
        assert coordinate_tail(law, 3, 0.3) == pytest.approx(
            float(mp.expint(2, 0.3)) / 2, rel=1e-10)
        assert coordinate_tail(law, 3, -0.77) == pytest.approx(
            1.0 - float(mp.expint(2, 0.77)) / 2, rel=1e-10)

    def test_arcsine_for_d2(self):
        expected = self.oracle(0.3, lambda t: 1 / (mp.pi * mp.sqrt(1 - t * t)))
        assert coordinate_tail(self.EXPONENTIAL, 2, 0.3) == pytest.approx(
            expected, rel=1e-10)

    def test_d4_center(self):
        expected = self.oracle(0.3, lambda t: 2 / mp.pi * mp.sqrt(1 - t * t))
        assert coordinate_tail(self.EXPONENTIAL, 4, 0.3) == pytest.approx(
            expected, rel=1e-10)

    def test_d1_is_exact(self):
        # T = +-1, each with probability 1/2: P(R T > w) = P(R > w)/2 for
        # w > 0, 1 - P(R > |w|)/2 for w < 0 and 1/2 at 0
        law = self.EXPONENTIAL
        assert coordinate_tail(law, 1, 0.3) == pytest.approx(
            float(mp.exp(-0.3) / 2), rel=1e-15)
        assert coordinate_tail(law, 1, -0.77) == pytest.approx(
            float(1 - mp.exp(-0.77) / 2), rel=1e-15)
        assert coordinate_tail(law, 1, 0.0) == 0.5
        with pytest.raises(DomainError, match="needs an integer d >= 1"):
            coordinate_tail(law, 0, 0.5)

    def test_domain(self):
        for d, w in [(2.5, 0.5), (True, 0.5), (3, math.nan), (3, math.inf)]:
            with pytest.raises(DomainError, match="coordinate_tail needs"):
                coordinate_tail(self.EXPONENTIAL, d, w)

    @pytest.mark.parametrize("d", range(1, 11))
    def test_normalization(self, d):
        # R = chi_d makes R T a standard normal coordinate
        law = make_radial("ChiOfDim", d)
        for w in (0.5, -1.3, 4.0):
            assert coordinate_tail(law, d, w) == pytest.approx(
                std_normal_tail(w), rel=1e-10)


class TestCholesky:
    def test_identity(self):
        ident = np.eye(2)
        np.testing.assert_allclose(CorrelationMatrix(ident).cholesky(), ident)

    def test_closed_form_2x2(self):
        m = CorrelationMatrix(np.array([[1.0, 0.9], [0.9, 1.0]]))
        chol = m.cholesky()
        np.testing.assert_allclose(
            chol, [[1.0, 0.0], [0.9, math.sqrt(1 - 0.81)]], rtol=1e-14)

    def test_singular_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            CorrelationMatrix(np.array([[1.0, 0.9, -0.9], [0.9, 1.0, 0.9],
                                        [-0.9, 0.9, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            CorrelationMatrix(np.array([[1.0, 1.0], [1.0, 1.0]]))

    def test_reconstruction_on_random_matrices(self):
        rng = np.random.default_rng(20240)
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            a = rng.standard_normal((d, d + 2))
            cov = a @ a.T
            scale = np.sqrt(np.diag(cov))
            corr = cov / np.outer(scale, scale)
            np.fill_diagonal(corr, 1.0)
            corr = 0.5 * (corr + corr.T)
            chol = CorrelationMatrix(corr).cholesky()
            np.testing.assert_allclose(chol @ chol.T, corr, atol=1e-12)


class TestCorrelationMatrix:
    def test_rejects_bad_diagonal(self):
        with pytest.raises(DomainError):
            CorrelationMatrix(np.array([[1.0, 0.0], [0.0, 0.5]]))

    def test_rejects_asymmetric(self):
        with pytest.raises(DomainError):
            CorrelationMatrix(np.array([[1.0, 0.3], [0.2, 1.0]]))

    def test_rejects_out_of_range(self):
        with pytest.raises(DomainError):
            CorrelationMatrix(np.array([[1.0, 1.2], [1.2, 1.0]]))

    def test_equicorrelation_bounds(self):
        m = equicorrelation(3, -0.4)
        assert m.entries[0, 1] == -0.4
        with pytest.raises(DomainError):
            equicorrelation(3, -0.6)  # not positive definite for d=3

    @pytest.mark.parametrize("d", [2.5, 2.0, "2", 0])
    def test_equicorrelation_dimension_follows_integer_rule(self, d):
        with pytest.raises(InvalidParams,
                           match=f"^dimension must be an integer >= 1, got {re.escape(repr(d))}$"):
            equicorrelation(d, 0.3)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_equicorrelation_rejects_non_finite_rho(self, d, rho):
        with pytest.raises(DomainError, match="needs a finite rho"):
            equicorrelation(d, rho)

    def test_equicorrelation_d1_takes_any_finite_rho(self):
        np.testing.assert_array_equal(equicorrelation(1, 5.0).entries, [[1.0]])


def _helper_calls():
    """Each public helper with one argument left open, by name."""
    from tailsum import (ModelSpec, probe_condition_rho, probe_margin_mda_limit,
                         probe_mda_limit, probe_o_regular_variation)

    laws = {"ChiOfDim(2)": make_radial("ChiOfDim", 2),
            "ChiOfDim(3)": make_radial("ChiOfDim", 3),
            "WeibullTail(2)": make_radial("WeibullTail", 2.0),
            "LognormalLogRadius": make_radial("LognormalLogRadius")}
    chi = laws["ChiOfDim(2)"]
    spec = ModelSpec.standard(2, 0.5, radial=chi)
    calls = {
        "std_normal_tail": std_normal_tail,
        "std_normal_log_tail": std_normal_log_tail,
        "lognormal_pdf": lognormal_pdf,
        "lognormal_pdf-mu": lambda v: lognormal_pdf(1.0, v),
        "lognormal_pdf-sigma": lambda v: lognormal_pdf(1.0, 0.0, v),
        "gamma_function": gamma_function,
        "margin_scale-u": lambda v: spec.margin_scale(0, v),
        "margin_scale-j": lambda v: spec.margin_scale(v, 10.0),
        "margin_scale_limit-j": spec.margin_scale_limit,
        "probe_condition_rho-c": lambda v: probe_condition_rho(spec, 100.0, c=v),
        "probe_condition_rho-epsilon":
            lambda v: probe_condition_rho(spec, 100.0, epsilon=v),
        "probe_mda_limit-u": lambda v: probe_mda_limit(chi, [v], [0.0]),
        "probe_mda_limit-x": lambda v: probe_mda_limit(chi, [8.0], [v]),
        "probe_margin_mda_limit-x": lambda v: probe_margin_mda_limit(
            spec, 0, [100.0], [v]),
        "probe_o_regular_variation": lambda v: probe_o_regular_variation(chi, [v]),
    }
    for name, law in laws.items():
        for what in ("tail", "density", "log_tail", "log_density", "scaling"):
            calls[f"{name}.{what}"] = getattr(law, what)
    return calls


_HELPERS = _helper_calls()


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, "1", None, True,
                                   10**400],
                         ids=["nan", "inf", "-inf", "str", "none", "bool", "1e400"])
@pytest.mark.parametrize("helper", sorted(_HELPERS))
def test_helpers_reject_what_is_not_a_finite_real(helper, value):
    # each used to return nan, 0, 1 or inf, or to raise TypeError,
    # OverflowError or IndexError, on at least one of these
    with pytest.raises(TailsumError):
        _HELPERS[helper](value)


@pytest.mark.parametrize("helper, value", [
    ("margin_scale-j", -1), ("margin_scale-j", 2), ("margin_scale-j", 1.0),
    ("margin_scale_limit-j", -1), ("margin_scale_limit-j", 2),
    ("probe_condition_rho-epsilon", 0.0), ("gamma_function", 0.0),
    ("lognormal_pdf", 0.0), ("lognormal_pdf-sigma", -1.0)])
def test_helpers_reject_finite_values_outside_their_domain(helper, value):
    # margin index -1 used to read the last margin (margin_scale_limit's
    # too, and 2 raised IndexError), and epsilon = 0 to raise ValueError:
    # math domain error
    with pytest.raises(DomainError):
        _HELPERS[helper](value)
