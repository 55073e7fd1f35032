"""First/second-order approximations, closed forms, and the angular check."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_tables import TABLES, matches_printed
from tailsum import (CorrelationMatrix, DomainError, ModelSpec,
                     VARIANT_DENSITY, VARIANT_LIMIT, WrongRadialLaw,
                     angular_reduction_check, approximate,
                     equicorrelated_correction, first_order,
                     lognormal_correction, lognormal_pair_correction,
                     make_radial, marginal_tail, second_order_correction)
from tailsum.asymptotics import (log_equicorrelated_correction,
                                 log_lognormal_correction,
                                 log_lognormal_pair_correction)
from tailsum.radial import ScalingBundle

mp.mp.dps = 40


def oracle_fstar(u):
    """Standard log-normal density via mpmath."""
    return float(mp.exp(-mp.log(u) ** 2 / 2) / (u * mp.sqrt(2 * mp.pi)))


class TestFirstOrder:
    def test_printed_anchor_u10(self, standard_spec):
        assert matches_printed(first_order(standard_spec(0.9), 10.0), "0.0213")

    def test_printed_anchor_u300(self, standard_spec):
        assert matches_printed(first_order(standard_spec(0.9), 300.0), "1.17e-08")

    def test_single_margin_equals_marginal(self):
        spec = ModelSpec.standard(1, 0.0)
        for u in [2.0, 10.0]:
            assert first_order(spec, u) == pytest.approx(
                marginal_tail(spec, 0, u), rel=1e-14)

    def test_oracle_value(self, standard_spec):
        expected = 2 * float(mp.erfc(mp.log(10) / mp.sqrt(2)) / 2)
        assert first_order(standard_spec(0.0), 10.0) == pytest.approx(expected, rel=1e-13)


class TestSecondOrder:
    def test_table1_anchor(self, standard_spec):
        spec = standard_spec(0.9)
        corr = second_order_correction(spec, 10.0)
        # oracle: 2 exp((1-rho^2)/2) u^rho f*(u)
        expected = 2 * math.exp(0.095) * 10**0.9 * oracle_fstar(10.0)
        assert corr == pytest.approx(expected, rel=1e-12)
        assert matches_printed(first_order(spec, 10.0) + corr, "0.0705")

    def test_table3_anchor(self, standard_spec):
        spec = standard_spec(0.0)
        apx = approximate(spec, 10.0)
        assert matches_printed(apx.second_order, "0.0306")

    def test_table4_anchor(self, standard_spec):
        apx = approximate(standard_spec(-0.9), 2.0)
        assert matches_printed(apx.second_order, "0.673")

    def test_structure_invariants(self, standard_spec):
        apx = approximate(standard_spec(0.5), 30.0)
        assert apx.second_order == apx.first_order + apx.correction
        assert apx.correction >= 0.0
        assert apx.pair_terms.shape == (2, 2)
        assert apx.pair_terms[0, 0] == 0.0
        assert apx.correction == pytest.approx(
            apx.pair_terms[0, 1] + apx.pair_terms[1, 0], rel=1e-12)

    def test_single_margin_correction_is_zero(self):
        spec = ModelSpec.standard(1, 0.0)
        assert second_order_correction(spec, 10.0) == 0.0

    def test_correction_increasing_in_correlation(self, standard_spec):
        for u in [10.0, 100.0]:
            vals = [second_order_correction(standard_spec(r), u)
                    for r in [-0.95, -0.5, 0.0, 0.5, 0.95]]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_variants_agree_asymptotically(self, standard_spec):
        spec = standard_spec(0.5)
        at_1e6 = (second_order_correction(spec, 1e6, VARIANT_LIMIT)
                  / second_order_correction(spec, 1e6, VARIANT_DENSITY))
        at_100 = (second_order_correction(spec, 100.0, VARIANT_LIMIT)
                  / second_order_correction(spec, 100.0, VARIANT_DENSITY))
        assert abs(at_1e6 - 1.0) < 0.05
        assert abs(at_1e6 - 1.0) < abs(at_100 - 1.0)

    def test_limit_variant_formula(self, standard_spec):
        # limit form per pair: exp((1-r^2)/2) u^r Phibar(log u) / (u/log u)
        spec = standard_spec(0.9)
        u = 50.0
        tail = float(mp.erfc(mp.log(u) / mp.sqrt(2)) / 2)
        per_pair = math.exp(0.095) * u**0.9 * tail / (u / math.log(u))
        assert second_order_correction(spec, u, VARIANT_LIMIT) == pytest.approx(
            2 * per_pair, rel=1e-12)


class TestApproximateDomain:
    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, 0.0, -3.0])
    def test_rejects_bad_threshold(self, standard_spec, u):
        with pytest.raises(DomainError, match="threshold u must be finite and positive"):
            approximate(standard_spec(0.5), u)


class TestLognormalClosedForm:
    def test_deep_anchor(self, standard_spec):
        spec = standard_spec(0.9)
        corr = lognormal_correction(spec, 1e6)
        # oracle: 2 exp((1-0.81)/2) u^0.9 f*(u) at 40 digits
        expected = float(2 * mp.exp(mp.mpf("0.095")) * mp.mpf(10) ** mp.mpf("5.4")
                         * mp.exp(-mp.log(1e6) ** 2 / 2) / (1e6 * mp.sqrt(2 * mp.pi)))
        assert corr == pytest.approx(expected, rel=1e-12)
        assert matches_printed(first_order(spec, 1e6) + corr, "9.94e-43")

    def test_matches_density_variant_for_standard_margins(self, standard_spec):
        for rho in [-0.9, 0.0, 0.5, 0.9]:
            spec = standard_spec(rho)
            for u in [10.0, 1e3]:
                assert lognormal_correction(spec, u) == pytest.approx(
                    second_order_correction(spec, u, VARIANT_DENSITY), rel=1e-12)

    @given(data=st.data(), d=st.sampled_from([2, 3]))
    def test_matches_density_variant_for_any_margins(self, data, d):
        def floats(lo, hi, size=None):
            f = st.floats(lo, hi, allow_nan=False, allow_infinity=False)
            return data.draw(f if size is None else st.lists(f, min_size=size,
                                                             max_size=size))

        lam = floats(0.1, 10.0, d)
        beta = floats(0.2, 3.0, d)
        gamma = floats(0.2, 3.0)
        # a random positive-definite correlation matrix
        a = np.array(floats(-1.0, 1.0, d * (d + 1))).reshape(d, d + 1)
        cov = a @ a.T + 0.05 * np.eye(d)
        sd = np.sqrt(np.diag(cov))
        sigma = cov / np.outer(sd, sd)
        np.fill_diagonal(sigma, 1.0)
        spec = ModelSpec(d=d, lam=lam, beta=beta, gamma=gamma,
                         sigma=CorrelationMatrix(sigma),
                         radial=make_radial("ChiOfDim", d))
        u = floats(1.5, 1e6)
        # equal values to rel 1e-10, compared in log space because the
        # linear values underflow for small beta*gamma
        closed = log_lognormal_correction(spec, u)
        general = approximate(spec, u, VARIANT_DENSITY).log_correction
        assert closed == pytest.approx(general, abs=1e-10)

    def test_single_margin_zero(self):
        assert lognormal_correction(ModelSpec.standard(1, 0.0), 10.0) == 0.0

    def test_wrong_radial_rejected(self):
        spec = ModelSpec.standard(2, 0.0, radial=make_radial("WeibullTail", 3.0))
        with pytest.raises(WrongRadialLaw):
            lognormal_correction(spec, 10.0)

    def test_log_form_survives_extreme_thresholds(self):
        lam, beta = [1.0, 1.0], [1.0, 1.0]
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        lg = log_lognormal_pair_correction(lam, beta, 1.0, sigma, 1e40)
        # linear value underflows; log value stays finite
        assert math.isfinite(lg)
        assert lg < -4000.0


class TestEquicorrelated:
    def test_rho0_value(self):
        expected = 2 * math.exp(0.5) * oracle_fstar(10.0)
        assert equicorrelated_correction(2, 0.0, 10.0) == pytest.approx(expected, rel=1e-12)
        assert equicorrelated_correction(2, 0.0, 10.0) == pytest.approx(9.28527e-3, rel=1e-5)

    def test_d1_zero(self):
        assert equicorrelated_correction(1, 0.5, 10.0) == 0.0

    def test_rho0_identity_with_density(self):
        from tailsum import lognormal_pdf

        for d in [2, 3, 5]:
            for u in [10.0, 100.0]:
                expected = d * (d - 1) * math.exp(0.5) * lognormal_pdf(u)
                assert equicorrelated_correction(d, 0.0, u) == pytest.approx(
                    expected, rel=1e-12)

    def test_identity_with_lognormal_closed_form(self):
        # the pairwise closed form collapses to the equicorrelated formula
        # for standard margins; the identity needs no positive-definiteness
        for d in range(2, 7):
            lam, beta = [1.0] * d, [1.0] * d
            for rho in [-0.9, 0.0, 0.5, 0.9]:
                sigma = np.full((d, d), rho)
                np.fill_diagonal(sigma, 1.0)
                for u in [10.0, 1e3, 1e6]:
                    a = equicorrelated_correction(d, rho, u)
                    b = lognormal_pair_correction(lam, beta, 1.0, sigma, u)
                    assert a == pytest.approx(b, rel=1e-12)

    def test_log_form_matches(self):
        lg = log_equicorrelated_correction(3, 0.5, 1e5)
        assert math.exp(lg) == pytest.approx(
            equicorrelated_correction(3, 0.5, 1e5), rel=1e-14)

    def test_domains(self):
        from tailsum.errors import DomainError

        with pytest.raises(DomainError):
            equicorrelated_correction(2, 1.0, 10.0)
        with pytest.raises(DomainError):
            equicorrelated_correction(2, 0.5, 0.5)
        with pytest.raises(DomainError):
            equicorrelated_correction(0, 0.5, 10.0)


class TestAsymptoticsAgainstAllTables:
    @pytest.mark.parametrize("rho", [0.9, 0.5, 0.0, -0.9])
    def test_both_columns_every_row(self, standard_spec, rho):
        spec = standard_spec(rho)
        for row in TABLES[rho]:
            apx = approximate(spec, row.u, VARIANT_DENSITY)
            assert matches_printed(apx.first_order, row.asympt1), \
                f"asympt1 mismatch at u={row.u}: {apx.first_order} vs {row.asympt1}"
            assert matches_printed(apx.second_order, row.asympt2), \
                f"asympt2 mismatch at u={row.u}: {apx.second_order} vs {row.asympt2}"


class TestAngularReduction:
    def test_d3_band_and_convergence(self):
        law = make_radial("ChiOfDim", 3)
        lo = angular_reduction_check(law, 1.0, 1.0, 1.0, 3, 1e4)
        hi = angular_reduction_check(law, 1.0, 1.0, 1.0, 3, 1e8)
        assert 0.85 <= hi.ratio <= 1.15
        assert abs(hi.ratio - 1.0) < abs(lo.ratio - 1.0)

    def test_d3_prefactor_is_half(self):
        # 2^0 Gamma(3/2)/sqrt(pi) = 1/2
        law = make_radial("ChiOfDim", 3)
        u = 1e6
        chk = angular_reduction_check(law, 1.0, 1.0, 1.0, 3, u)
        bundle = ScalingBundle(law=law, lam=[1.0], beta=[1.0], gamma=1.0)
        es = bundle.margin_scale(0, u)
        tail = math.exp(law.log_tail(math.log(u)))
        prefac = chk.asymptotic / ((es / (u * math.log(u))) * tail)
        assert prefac == pytest.approx(0.5, rel=1e-12)

    def test_integral_equals_marginal_tail(self):
        # the integral side is exactly the sphere-coordinate marginal tail
        law = make_radial("WeibullTail", 2.0, math.sqrt(2.0))
        spec = ModelSpec.standard(2, 0.0, radial=law)
        chk = angular_reduction_check(law, 1.0, 1.0, 1.0, 2, 50.0)
        assert chk.integral == pytest.approx(marginal_tail(spec, 0, 50.0), rel=1e-9)

    def test_d2_band(self):
        law = make_radial("ChiOfDim", 2)
        chk = angular_reduction_check(law, 1.0, 1.0, 1.0, 2, 1e8)
        assert 0.85 <= chk.ratio <= 1.15
