"""First/second-order approximations, closed forms, and the angular check."""

import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference_tables import TABLES, matches_printed
from tailsum import (CorrelationMatrix, DomainError, InvalidParams, ModelSpec,
                     VARIANT_DENSITY, VARIANT_LIMIT, angular_reduction_check,
                     approximate, first_order, make_radial, marginal_tail)
from tailsum.asymptotics import _log_pair_formula, _log_total, log_first_order
from tailsum.numerics import lognormal_log_pdf
from tailsum.radial import ScalingBundle

mp.mp.dps = 40


def oracle_fstar(u):
    """Standard log-normal density via mpmath."""
    return float(mp.exp(-mp.log(u) ** 2 / 2) / (u * mp.sqrt(2 * mp.pi)))


def lognormal_closed_form_oracle(lam, beta, gamma, sigma, u):
    """log of the log-normal closed-form correction, summed term by term
    in scalars; independent of the library's pair formula.  Per ordered
    pair (j, i) the term is

        lam_i / (beta_j*gamma)^2
          * exp( (beta_i*gamma)^2 (1 - sigma_ij^2) / 2 )
          * (u/lam_j)^(beta_i sigma_ij / beta_j)
          * exp( -log(u/lam_j)^2 / (2 (beta_j*gamma)^2) ) / (u sqrt(2 pi))
    """
    logs = []
    for j in range(len(lam)):
        bg_j = beta[j] * gamma
        llam = math.log(u / lam[j])
        for i in range(len(lam)):
            if i == j:
                continue
            s_ij = sigma[i][j]
            bg_i = beta[i] * gamma
            logs.append(
                math.log(lam[i]) - 2.0 * math.log(bg_j)
                + 0.5 * bg_i * bg_i * (1.0 - s_ij * s_ij)
                + (beta[i] * s_ij / beta[j]) * llam
                - llam * llam / (2.0 * bg_j * bg_j)
                - math.log(u) - 0.5 * math.log(2.0 * math.pi)
            )
    top = max(logs)
    return top + math.log(math.fsum(math.exp(x - top) for x in logs))


def log_equicorrelated_oracle(d, rho, u):
    """log of the correction for standard margins with constant
    correlation rho, the closed form

        d (d-1) exp((1 - rho^2)/2) / (sqrt(2 pi) u^(1-rho)) exp(-log(u)^2/2)

    -inf for d = 1."""
    if d == 1:
        return -math.inf
    lu = math.log(u)
    return (math.log(d * (d - 1)) + 0.5 * (1.0 - rho * rho)
            - (1.0 - rho) * lu - 0.5 * lu * lu - 0.5 * math.log(2.0 * math.pi))


def equicorrelated_oracle(d, rho, u):
    return math.exp(log_equicorrelated_oracle(d, rho, u))


def equicorrelated_library_correction(d, rho, u):
    """The library's correction for standard margins with constant
    correlation rho: ``approximate``'s where that matrix is positive
    definite (rho > -1/(d-1)), and otherwise its pair formula on the raw
    matrix, which is never factorised."""
    if rho > -1.0 / (d - 1):
        return approximate(ModelSpec.standard(d, rho), u).correction
    sigma = np.full((d, d), rho)
    np.fill_diagonal(sigma, 1.0)
    ones = np.ones(d)
    log_q = np.full(d, lognormal_log_pdf(u))
    return math.exp(_log_total(_log_pair_formula(ones, ones, 1.0, sigma, u,
                                                 ones, log_q)))


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
        corr = approximate(spec, 10.0).correction
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

    def test_log_pair_terms_stay_finite_where_the_linear_terms_underflow(
            self, standard_spec):
        apx = approximate(standard_spec(0.9), 1e20)
        off = ~np.eye(2, dtype=bool)
        assert np.all(apx.pair_terms[off] == 0.0)
        assert np.all(np.isfinite(apx.log_pair_terms[off]))
        assert np.all(apx.log_pair_terms[~off] == -math.inf)
        assert apx.log_correction == pytest.approx(
            float(np.logaddexp(*apx.log_pair_terms[off])), rel=1e-15)

    def test_single_margin_correction_is_zero(self):
        spec = ModelSpec.standard(1, 0.0)
        assert approximate(spec, 10.0).correction == 0.0

    def test_correction_increasing_in_correlation(self, standard_spec):
        for u in [10.0, 100.0]:
            vals = [approximate(standard_spec(r), u).correction
                    for r in [-0.95, -0.5, 0.0, 0.5, 0.95]]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_variants_agree_asymptotically(self, standard_spec):
        spec = standard_spec(0.5)
        at_1e6 = (approximate(spec, 1e6, VARIANT_LIMIT).correction
                  / approximate(spec, 1e6, VARIANT_DENSITY).correction)
        at_100 = (approximate(spec, 100.0, VARIANT_LIMIT).correction
                  / approximate(spec, 100.0, VARIANT_DENSITY).correction)
        assert abs(at_1e6 - 1.0) < 0.05
        assert abs(at_1e6 - 1.0) < abs(at_100 - 1.0)

    def test_limit_variant_formula(self, standard_spec):
        # limit form per pair: exp((1-r^2)/2) u^r Phibar(log u) / (u/log u)
        spec = standard_spec(0.9)
        u = 50.0
        tail = float(mp.erfc(mp.log(u) / mp.sqrt(2)) / 2)
        per_pair = math.exp(0.095) * u**0.9 * tail / (u / math.log(u))
        assert approximate(spec, u, VARIANT_LIMIT).correction == pytest.approx(
            2 * per_pair, rel=1e-12)


class TestApproximateDomain:
    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, 0.0, -3.0])
    def test_rejects_bad_threshold(self, standard_spec, u):
        with pytest.raises(DomainError, match="threshold u must be finite and positive"):
            approximate(standard_spec(0.5), u)

    def test_rejects_unknown_variant(self, standard_spec):
        with pytest.raises(DomainError, match="unknown variant 'foo'"):
            approximate(standard_spec(0.5), 10.0, "foo")


_SPEC = ModelSpec.standard(2, 0.5)


def _chi_spec(lam, beta, gamma, sigma):
    """A two-margin model from raw arrays, with the Gaussian copula."""
    return ModelSpec(d=2, lam=lam, beta=beta, gamma=gamma, sigma=sigma,
                     radial=make_radial("ChiOfDim", 2))


# Every entry point that takes a threshold, called at that threshold.  The
# *_correction keys are the corrections ``approximate`` gives for the model
# each names: both variants, the log-normal model with general margins and
# from raw pair arrays, and the equicorrelated model, linear and in log.
_THRESHOLD_ENTRY_POINTS = {
    "first_order": lambda u: first_order(_SPEC, u),
    "log_first_order": lambda u: log_first_order(_SPEC, u),
    "approximate": lambda u: approximate(_SPEC, u),
    "second_order_correction": lambda u: approximate(_SPEC, u).correction,
    "second_order_correction_limit":
        lambda u: approximate(_SPEC, u, VARIANT_LIMIT).correction,
    "lognormal_correction": lambda u: approximate(_chi_spec(
        [2.0, 0.5], [1.5, 1.0], 0.7, _SPEC.sigma.entries), u).correction,
    "lognormal_pair_correction": lambda u: approximate(_chi_spec(
        [1.0, 1.0], [1.0, 1.0], 1.0, _SPEC.sigma.entries), u).correction,
    "equicorrelated_correction":
        lambda u: equicorrelated_library_correction(2, 0.5, u),
    "log_equicorrelated_correction":
        lambda u: approximate(ModelSpec.standard(2, 0.5), u).log_correction,
    "angular_reduction_check": lambda u: angular_reduction_check(
        make_radial("ChiOfDim", 3), 1.0, 1.0, 1.0, 3, u),
}


class TestThresholdDomain:
    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", sorted(_THRESHOLD_ENTRY_POINTS))
    def test_non_finite_threshold_rejected(self, entry, u):
        with pytest.raises(DomainError, match="threshold u must be finite"):
            _THRESHOLD_ENTRY_POINTS[entry](u)


class TestLognormalClosedForm:
    def test_deep_anchor(self, standard_spec):
        spec = standard_spec(0.9)
        corr = approximate(spec, 1e6).correction
        # oracle: 2 exp((1-0.81)/2) u^0.9 f*(u) at 40 digits
        expected = float(2 * mp.exp(mp.mpf("0.095")) * mp.mpf(10) ** mp.mpf("5.4")
                         * mp.exp(-mp.log(1e6) ** 2 / 2) / (1e6 * mp.sqrt(2 * mp.pi)))
        assert corr == pytest.approx(expected, rel=1e-12)
        assert matches_printed(first_order(spec, 1e6) + corr, "9.94e-43")

    def test_matches_density_variant_for_standard_margins(self, standard_spec):
        for rho in [-0.9, 0.0, 0.5, 0.9]:
            spec = standard_spec(rho)
            for u in [10.0, 1e3]:
                oracle = lognormal_closed_form_oracle(
                    spec.lam, spec.beta, spec.gamma, spec.sigma.entries, u)
                assert math.exp(oracle) == pytest.approx(
                    approximate(spec, u, VARIANT_DENSITY).correction, rel=1e-12)

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
        # compared in log space because the linear values underflow for
        # small beta*gamma
        general = approximate(spec, u, VARIANT_DENSITY).log_correction
        oracle = lognormal_closed_form_oracle(spec.lam, spec.beta, gamma,
                                              spec.sigma.entries, u)
        assert general == pytest.approx(oracle, rel=1e-13, abs=1e-10)

    def test_single_margin_zero(self):
        assert approximate(ModelSpec.standard(1, 0.0), 10.0).correction == 0.0

    @pytest.mark.parametrize("lam, sigma, match", [
        ([-1.0, 1.0], [[1.0, 0.5], [0.5, 1.0]], "lam must be positive"),
        ([math.nan, 1.0], [[1.0, 0.5], [0.5, 1.0]], "lam must be finite"),
        ([1.0, 1.0], [[1.0, 1.5], [1.5, 1.0]], r"must lie in \[-1, 1\]"),
        ([1.0, 1.0], [[1.0, 0.5], [0.4, 1.0]], "sigma must be symmetric"),
        ([1.0, 1.0], [["1", "0.5"], ["0.5", "1"]], "sigma entries must be real"),
    ])
    def test_raw_inputs_validated(self, lam, sigma, match):
        with pytest.raises(InvalidParams, match=match):
            approximate(_chi_spec(lam, [1.0, 1.0], 1.0, np.array(sigma)), 10.0)

    @pytest.mark.parametrize("sigma, match", [
        ([["1", "0.5"], ["0.5", "1"]], "sigma entries must be real numbers"),
        ([[True, 0.5], [0.5, True]], "sigma entries must be real numbers"),
        ([[1.0, 0.5], [0.5]], r"sigma must be a 2x2 matrix, got shape \(2,\)"),
    ], ids=["strings", "bools", "ragged"])
    def test_raw_sigma_checked_before_conversion(self, sigma, match):
        # strings used to be parsed (the value came out as 0.0259) and a
        # ragged matrix raised numpy's ValueError
        with pytest.raises(InvalidParams, match=match):
            approximate(_chi_spec([1.0, 1.0], [1.0, 1.0], 1.0, sigma), 10.0)

    def test_log_form_survives_extreme_thresholds(self):
        lam, beta = [1.0, 1.0], [1.0, 1.0]
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        lg = approximate(_chi_spec(lam, beta, 1.0, sigma), 1e40).log_correction
        # linear value underflows; log value stays finite
        assert math.isfinite(lg)
        assert lg < -4000.0
        assert lg == pytest.approx(
            lognormal_closed_form_oracle(lam, beta, 1.0, sigma, 1e40), rel=1e-13)
        lam, beta, gamma = [2.0, 0.5], [1.5, 1.0], 0.7
        lg = approximate(_chi_spec(lam, beta, gamma, sigma), 1e40).log_correction
        assert lg == pytest.approx(
            lognormal_closed_form_oracle(lam, beta, gamma, sigma, 1e40), rel=1e-13)


class TestEquicorrelated:
    def test_rho0_value(self):
        corr = approximate(ModelSpec.standard(2, 0.0), 10.0).correction
        expected = 2 * math.exp(0.5) * oracle_fstar(10.0)
        assert corr == pytest.approx(expected, rel=1e-12)
        assert corr == pytest.approx(9.28527e-3, rel=1e-5)

    def test_d1_zero(self):
        assert approximate(ModelSpec.standard(1, 0.5), 10.0).correction == 0.0
        assert equicorrelated_oracle(1, 0.5, 10.0) == 0.0

    def test_rho0_identity_with_density(self):
        from tailsum import lognormal_pdf

        for d in [2, 3, 5]:
            for u in [10.0, 100.0]:
                expected = d * (d - 1) * math.exp(0.5) * lognormal_pdf(u)
                corr = approximate(ModelSpec.standard(d, 0.0), u).correction
                assert corr == pytest.approx(expected, rel=1e-12)

    def test_identity_with_lognormal_closed_form(self):
        # the pair formula collapses to the equicorrelated formula for
        # standard margins; the identity needs no positive-definiteness
        for d in range(2, 7):
            for rho in [-0.9, 0.0, 0.5, 0.9]:
                for u in [10.0, 1e3, 1e6]:
                    a = equicorrelated_oracle(d, rho, u)
                    b = equicorrelated_library_correction(d, rho, u)
                    assert a == pytest.approx(b, rel=1e-12)

    def test_log_form_matches(self):
        apx = approximate(ModelSpec.standard(3, 0.5), 1e5)
        assert math.exp(apx.log_correction) == pytest.approx(apx.correction,
                                                             rel=1e-14)
        assert apx.log_correction == pytest.approx(
            log_equicorrelated_oracle(3, 0.5, 1e5), rel=1e-14)

    def test_domains(self):
        # the equicorrelated model's domain: rho below 1, u positive, d >= 1
        with pytest.raises(DomainError):
            ModelSpec.standard(2, 1.0)
        with pytest.raises(DomainError):
            approximate(ModelSpec.standard(2, 0.5), 0.0)
        with pytest.raises(InvalidParams):
            ModelSpec.standard(0, 0.5)

    @pytest.mark.parametrize("d, rho", [(2.5, 0.5), (True, 0.5), (2.0, 0.5),
                                        ("2", 0.5), (2, "0.5"), (2, None),
                                        (2, False), (2, math.nan)])
    def test_integer_and_real_rules(self, d, rho):
        # d follows the integer rule and rho must be a real number
        # (InvalidParams); nan is a real number outside rho's range
        # (DomainError)
        if isinstance(rho, float) and math.isnan(rho):
            error, match = DomainError, "needs a finite rho"
        else:
            error, match = InvalidParams, "must be an integer|must be a real"
        with pytest.raises(error, match=match):
            ModelSpec.standard(d, rho)


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


class TestWeibullChiEquivalence:
    # At d = 2, WeibullTail(2, sqrt 2) is ChiOfDim(2): the same joint law,
    # so the quadrature margins and kappa = scale^2/2 must reproduce the
    # Gaussian-copula closed forms at any scale factor.
    @pytest.mark.parametrize("variant", [VARIANT_DENSITY, VARIANT_LIMIT])
    @pytest.mark.parametrize("lam", [0.5, 2.0, 10.0])
    def test_same_approximation_at_every_scale_factor(self, lam, variant):
        def spec(law):
            return ModelSpec(d=2, lam=[lam, lam], beta=[1.0, 0.7], gamma=1.2,
                             sigma=CorrelationMatrix(np.array([[1.0, 0.5],
                                                               [0.5, 1.0]])),
                             radial=law)

        weibull = spec(make_radial("WeibullTail", 2.0, math.sqrt(2.0)))
        chi = spec(make_radial("ChiOfDim", 2))
        assert chi.is_gaussian_copula() and not weibull.is_gaussian_copula()
        for u in (3.0 * lam, 50.0 * lam, 1e3 * lam):
            got, want = approximate(weibull, u, variant), approximate(chi, u, variant)
            for field in ("first_order", "correction", "second_order"):
                assert getattr(got, field) == pytest.approx(
                    getattr(want, field), rel=1e-8), (u, field)


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

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("name", ["lam", "beta", "gamma"])
    def test_rejects_bad_margin_parameter(self, name, value):
        params = {"lam": 1.0, "beta": 1.0, "gamma": 1.0, name: value}
        rule = "finite" if not math.isfinite(value) else "positive"
        with pytest.raises(InvalidParams, match=f"{name} must be {rule}"):
            angular_reduction_check(make_radial("ChiOfDim", 3), d=3, u=1e4,
                                    **params)

    def test_threshold_domain(self):
        law = make_radial("ChiOfDim", 2)
        with pytest.raises(DomainError, match="needs u > lam_j"):
            angular_reduction_check(law, 2.0, 1.0, 1.0, 2, 1.5)
        # above the scale factor but below 1, where log u <= 0
        with pytest.raises(DomainError, match=r"finite and > 1, got 0\.8"):
            angular_reduction_check(law, 0.5, 1.0, 1.0, 2, 0.8)

    def test_radial_must_be_a_radial_law(self):
        with pytest.raises(InvalidParams, match="law must be a RadialLaw"):
            angular_reduction_check("ChiOfDim", 1.0, 1.0, 1.0, 2, 10.0)

    @pytest.mark.parametrize("d", [2.5, 3.0, True, 1, "3"])
    def test_dimension_follows_integer_rule(self, d):
        with pytest.raises(DomainError, match="needs an integer d >= 2"):
            angular_reduction_check(make_radial("ChiOfDim", 3), 1.0, 1.0, 1.0,
                                    d, 1e4)

    @pytest.mark.parametrize("u, ratio", [(1e4, 0.99941), (1e8, 0.99993)])
    def test_ratio_from_the_logs_where_both_sides_underflow(self, u, ratio):
        # WeibullTail(3) at d = 2: both sides are below 1e-308, where the
        # linear check returned 0/0 = nan
        chk = angular_reduction_check(make_radial("WeibullTail", 3.0), 1.0, 1.0,
                                      1.0, 2, u)
        assert chk.integral == 0.0 and chk.asymptotic == 0.0
        assert chk.ratio == pytest.approx(ratio, abs=5e-6)
        for value in (chk.integral, chk.asymptotic, chk.log_integral,
                      chk.log_asymptotic, chk.ratio):
            assert type(value) is float

    def test_d2_band(self):
        law = make_radial("ChiOfDim", 2)
        chk = angular_reduction_check(law, 1.0, 1.0, 1.0, 2, 1e8)
        assert 0.85 <= chk.ratio <= 1.15
