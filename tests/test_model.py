"""Model construction, marginals, and sampling contracts."""

import math

import mpmath as mp
import numpy as np
import pytest

from tailsum import (CorrelationMatrix, DomainError, InvalidParams,
                     ModelSpec, equicorrelation, make_radial, marginal_pdf,
                     marginal_tail, sample, validate, validate_inputs)
from tailsum.model import _draw_chunk, marginal_log_tail

mp.mp.dps = 40


def spec_with(lam, beta, sigma_entries, gamma=1.0, radial=None):
    d = len(lam)
    return ModelSpec(d=d, lam=lam, beta=beta, gamma=gamma,
                     sigma=CorrelationMatrix(np.asarray(sigma_entries, float)),
                     radial=radial or make_radial("ChiOfDim", d))


class TestValidation:
    def test_standard_spec_is_valid(self):
        spec = ModelSpec.standard(2, 0.9)
        assert validate(spec) == []

    def test_strict_mda_passes_for_chi(self):
        assert validate(ModelSpec.standard(2, 0.0), strict_mda=True) == []

    def test_unit_diagonal_violation_reported(self):
        bad = np.array([[1.0, 0.2], [0.2, 0.5]])
        violations = validate_inputs(2, [1, 1], [1, 1], 1.0, bad)
        assert any("unit diagonal" in v for v in violations)

    def test_dimension_violation(self):
        violations = validate_inputs(0, [], [], 1.0, np.empty((0, 0)))
        assert any("dimension" in v for v in violations)

    def test_not_positive_definite_reported(self):
        bad = np.array([[1.0, 1.0], [1.0, 1.0]])
        violations = validate_inputs(2, [1, 1], [1, 1], 1.0, bad)
        assert any("positive definite" in v for v in violations)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["lam", "beta", "gamma"])
    def test_non_finite_parameter_rejected(self, name, value):
        params = {"lam": [1.0, 1.0], "beta": [1.0, 1.0], "gamma": 1.0}
        params[name] = value if name == "gamma" else [value, 1.0]
        with pytest.raises(InvalidParams, match=f"{name} must be finite"):
            ModelSpec(d=2, sigma=equicorrelation(2, 0.0),
                      radial=make_radial("ChiOfDim", 2), **params)
        violations = validate_inputs(2, params["lam"], params["beta"],
                                     params["gamma"], np.eye(2))
        assert any(f"{name} must be finite" in v for v in violations)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["lam", "beta", "gamma"])
    def test_validate_reports_non_finite_parameter(self, name, value):
        # a spec whose fields were altered after construction
        spec = ModelSpec.standard(2, 0.0)
        object.__setattr__(spec, name,
                           value if name == "gamma" else np.array([value, 1.0]))
        assert any(f"{name} must be finite" in v for v in validate(spec))

    def test_beta_order_normalized(self):
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        spec = spec_with([5.0, 7.0], [1.0, 2.0], sigma)
        np.testing.assert_array_equal(spec.beta, [2.0, 1.0])
        np.testing.assert_array_equal(spec.lam, [7.0, 5.0])
        np.testing.assert_array_equal(spec.permutation, [1, 0])

    def test_tie_break_puts_largest_scale_first(self):
        sigma = equicorrelation(3, 0.2).entries
        spec = spec_with([1.0, 3.0, 2.0], [1.0, 1.0, 1.0], sigma)
        np.testing.assert_array_equal(spec.lam, [3.0, 2.0, 1.0])

    def test_sigma_rows_permuted_consistently(self):
        sigma = np.array([[1.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.0]])
        spec = spec_with([1.0, 1.0, 1.0], [1.0, 3.0, 2.0], sigma)
        # stored order: margins (1, 2, 0) of the input
        expected = sigma[np.ix_([1, 2, 0], [1, 2, 0])]
        np.testing.assert_allclose(spec.sigma.entries, expected)

    def test_marginal_attached_to_physical_margin(self):
        # the same two physical margins fed in either order: the tail of
        # the (lam=2, beta=1) margin must not depend on the input order
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        a = spec_with([2.0, 1.0], [1.0, 2.0], sigma)
        b = spec_with([1.0, 2.0], [2.0, 1.0], sigma)
        assert marginal_tail(a, 1, 7.0) == marginal_tail(b, 1, 7.0)
        np.testing.assert_array_equal(a.lam, b.lam)
        np.testing.assert_array_equal(a.beta, b.beta)


class TestMarginals:
    def test_standard_tail_at_10(self, standard_spec):
        spec = standard_spec(0.0)
        expected = float(mp.erfc(mp.log(10) / mp.sqrt(2)) / 2)
        assert marginal_tail(spec, 0, 10.0) == pytest.approx(expected, rel=1e-13)

    def test_median_at_scale_factor(self):
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        spec = spec_with([2.5, 2.5], [1.0, 1.0], sigma)
        assert marginal_tail(spec, 0, 2.5) == pytest.approx(0.5, abs=1e-14)

    def test_deep_tail_value(self, standard_spec):
        spec = standard_spec(0.0)
        assert marginal_tail(spec, 0, 1000.0) == pytest.approx(2.46191201882e-12, rel=1e-10)

    def test_below_scale_factor_exceeds_half(self, standard_spec):
        assert marginal_tail(standard_spec(0.0), 0, 0.5) > 0.5

    def test_domain_error(self, standard_spec):
        with pytest.raises(DomainError):
            marginal_tail(standard_spec(0.0), 0, 0.0)
        with pytest.raises(DomainError):
            marginal_tail(standard_spec(0.0), 5, 1.0)

    def test_general_margin_parameters(self):
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        spec = spec_with([2.0, 1.0], [1.5, 1.5], sigma, gamma=0.8)
        u = 30.0
        z = math.log(u / 2.0) / (1.5 * 0.8)
        expected = float(mp.erfc(z / mp.sqrt(2)) / 2)
        assert marginal_tail(spec, 0, u) == pytest.approx(expected, rel=1e-13)

    def test_quadrature_path_matches_closed_form(self):
        # WeibullTail(2, sqrt 2) gives the same margins as ChiOfDim(2) but
        # goes through the sphere-coordinate quadrature
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        quad_spec = spec_with([1.0, 1.0], [1.0, 1.0], sigma,
                              radial=make_radial("WeibullTail", 2.0, math.sqrt(2.0)))
        chi_spec = spec_with([1.0, 1.0], [1.0, 1.0], sigma)
        for u in [0.4, 1.0, 2.0, 10.0, 100.0]:
            assert marginal_tail(quad_spec, 0, u) == pytest.approx(
                marginal_tail(chi_spec, 0, u), rel=1e-6)

    def test_log_tail_deep(self, standard_spec):
        spec = standard_spec(0.0)
        lt = marginal_log_tail(spec, 0, 1e8)
        expected = float(mp.log(mp.erfc(mp.log(1e8) / mp.sqrt(2)) / 2))
        assert lt == pytest.approx(expected, rel=1e-12)

    def test_empirical_marginal_consistency(self, standard_spec):
        spec = standard_spec(0.5)
        batch = sample(spec, 10**7, seed=31337)
        for u in [5.0, 20.0]:
            p = marginal_tail(spec, 0, u)
            hits = int((batch.x[:, 0] > u).sum())
            se = math.sqrt(p * (1 - p) / batch.n)
            assert hits / batch.n == pytest.approx(p, abs=4 * se)


class TestMarginalPdf:
    def test_standard_at_10(self, standard_spec):
        spec = standard_spec(0.0)
        assert marginal_pdf(spec, 0, 10.0) == pytest.approx(2.81590189015e-03, rel=1e-12)

    def test_at_one(self, standard_spec):
        assert marginal_pdf(standard_spec(0.0), 0, 1.0) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), rel=1e-13)

    def test_vanishes_at_origin(self, standard_spec):
        assert marginal_pdf(standard_spec(0.0), 0, 1e-12) < 1e-30

    def test_numeric_path_matches_closed_form(self):
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        quad_spec = spec_with([1.0, 1.0], [1.0, 1.0], sigma,
                              radial=make_radial("WeibullTail", 2.0, math.sqrt(2.0)))
        chi_spec = spec_with([1.0, 1.0], [1.0, 1.0], sigma)
        for u in [2.0, 10.0]:
            assert marginal_pdf(quad_spec, 0, u) == pytest.approx(
                marginal_pdf(chi_spec, 0, u), rel=1e-6)


class TestSampling:
    def test_reproducible(self, standard_spec):
        spec = standard_spec(0.5)
        a = sample(spec, 5000, seed=7)
        b = sample(spec, 5000, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        assert np.all(a.x > 0)

    def test_different_seeds_differ(self, standard_spec):
        spec = standard_spec(0.5)
        assert not np.array_equal(sample(spec, 100, 1).x, sample(spec, 100, 2).x)

    def test_log_correlation_independent(self, standard_spec):
        batch = sample(standard_spec(0.0), 10**6, seed=11)
        y = np.log(batch.x)
        r = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
        assert abs(r) < 0.005

    def test_log_correlation_strong(self, standard_spec):
        batch = sample(standard_spec(0.9), 10**6, seed=12)
        y = np.log(batch.x)
        r = np.corrcoef(y[:, 0], y[:, 1])[0, 1]
        assert r == pytest.approx(0.9, abs=0.005)

    def test_log_means_match_scale_factors(self):
        sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
        spec = spec_with([2.0, 0.5], [1.5, 1.5], sigma, gamma=0.7)
        batch = sample(spec, 10**6, seed=13)
        bg = spec.beta * spec.gamma
        for j in range(2):
            mean_log = float(np.mean(np.log(batch.x[:, j])))
            assert mean_log == pytest.approx(math.log(spec.lam[j]), abs=0.005 * bg[j])

    def test_chi_radial_margins_are_lognormal(self):
        # chi radial of the full dimension: log-risks exactly Gaussian
        spec = ModelSpec.standard(3, 0.5)
        batch = sample(spec, 10**6, seed=21)
        y = np.log(batch.x[:, 0])
        assert float(np.mean(y)) == pytest.approx(0.0, abs=0.005)
        assert float(np.var(y)) == pytest.approx(1.0, abs=0.01)

    def test_gaussian_copula_draw_is_correlated_normals(self):
        # pins the conditional estimator's stream: normals, then @ chol.T
        spec = ModelSpec.standard(3, 0.5)
        chol = spec.sigma.cholesky()
        y = _draw_chunk(spec, np.random.default_rng(8), 1000, chol)
        expected = np.random.default_rng(8).standard_normal((1000, 3)) @ chol.T
        np.testing.assert_array_equal(y, expected)

    @pytest.mark.parametrize("radial", [make_radial("WeibullTail", 2.0, 1.5),
                                        make_radial("LognormalLogRadius")],
                             ids=["WeibullTail", "LognormalLogRadius"])
    def test_other_radial_margins_match_marginal_tail(self, radial):
        sigma = np.array([[1.0, 0.4], [0.4, 1.0]])
        spec = spec_with([2.0, 0.5], [1.5, 1.0], sigma, gamma=0.8, radial=radial)
        n = 200_000
        batch = sample(spec, n, seed=17)
        bg = spec.beta * spec.gamma
        for j in range(2):
            # u below lam_j (w < 0) and above it, w = log(u/lam_j)/bg_j
            for w in (-0.5, 0.5, 1.5):
                u = spec.lam[j] * math.exp(bg[j] * w)
                p = marginal_tail(spec, j, u)
                freq = float(np.mean(batch.x[:, j] > u))
                assert abs(freq - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n), (j, w)
