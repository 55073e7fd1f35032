"""Model construction, marginals, and sampling contracts."""

import math
import re
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import logsumexp

from tailsum import (CorrelationMatrix, DomainError, InvalidParams,
                     ModelSpec, NotPositiveDefinite, WrongRadialLaw, approximate,
                     conditional_max_mc, crude_mc, equicorrelation, make_radial,
                     marginal_pdf, marginal_tail, probe_mda_limit, sample,
                     std_normal_tail, validate_inputs)
from tailsum.cli import ConfigError, RunConfig
from tailsum.model import (_chunk_rng, _draw_chunk, coordinate_tail,
                           marginal_log_pdf, marginal_log_tail)
from tailsum.radial import ScalingBundle
from test_montecarlo import BAD_RUNS

mp.mp.dps = 40


def spec_with(lam, beta, sigma_entries, gamma=1.0, radial=None):
    d = len(lam)
    return ModelSpec(d=d, lam=lam, beta=beta, gamma=gamma,
                     sigma=CorrelationMatrix(np.asarray(sigma_entries, float)),
                     radial=radial or make_radial("ChiOfDim", d))


# Candidate correlation matrices, buildable or not.
_SIGMAS = {
    "valid": [[1.0, 0.3], [0.3, 1.0]],
    "valid_3x3": [[1.0, 0.5, 0.1], [0.5, 1.0, 0.3], [0.1, 0.3, 1.0]],
    "asymmetry_1e-6": [[1.0, 0.3], [0.3 + 1e-6, 1.0]],
    "asymmetry_1e-13": [[1.0, 0.3], [0.3 + 1e-13, 1.0]],
    "off_diagonal_1+5e-13": [[1.0, 1.0 + 5e-13], [1.0 + 5e-13, 1.0]],
    "off_diagonal_1.5": [[1.0, 1.5], [1.5, 1.0]],
    "nan_off_diagonal": [[1.0, math.nan], [math.nan, 1.0]],
    "inf_off_diagonal": [[1.0, math.inf], [math.inf, 1.0]],
    "minus_inf_off_diagonal": [[1.0, -math.inf], [-math.inf, 1.0]],
    "nan_one_entry": [[1.0, 0.3], [math.nan, 1.0]],
    "unit_diagonal": [[1.0, 0.2], [0.2, 0.5]],
    "not_positive_definite": [[1.0, 1.0], [1.0, 1.0]],
    "not_positive_definite_3x3": [[1.0, -0.6, -0.6], [-0.6, 1.0, -0.6],
                                  [-0.6, -0.6, 1.0]],
    "not_square": [[1.0, 0.3, 0.1], [0.3, 1.0, 0.2]],
    "string_entries": [["1", "x"], ["x", "1"]],
    "string_numbers": [["1", "0.5"], ["0.5", "1"]],
}

# Inputs that np.array would reject or change, passed to the validators as
# they are: (d, sigma, whether a model builds from it).  Of the _SIGMAS,
# only the "valid" ones are known to build.
_RAW_SIGMAS = {
    "bool_diagonal": (2, [[True, 0.5], [0.5, True]], False),
    "ragged": (2, [[1.0, 0.5], [0.5]], False),
    "ragged_tuples": (2, ((1.0, 0.5), (0.5,)), False),
    "arrays_of_uneven_shape": (2, [np.eye(2), np.eye(3)], False),
    "entry_a_list": (2, [[1.0, [0.5]], [0.5, 1.0]], False),
    "scalar": (1, 1.0, False),
    "wrong_size_matrix": (3, equicorrelation(2, 0.5), False),
    "correlation_matrix": (2, equicorrelation(2, 0.5), True),
    "identity_array": (2, np.eye(2), True),
    "integer_list": (2, [[1, 0], [0, 1]], True),
    # float() raises OverflowError on it
    "integer_past_the_float_range": (2, [[1, 10**400], [10**400, 1]], False),
}
_ALL_SIGMAS = {**{case: (len(m), m, True if case.startswith("valid") else None)
                  for case, m in _SIGMAS.items()}, **_RAW_SIGMAS}


class TestValidation:
    def test_standard_spec_is_valid(self):
        spec = ModelSpec.standard(2, 0.9)
        assert validate_inputs(spec.d, spec.lam, spec.beta, spec.gamma,
                               spec.sigma.entries) == []

    @pytest.mark.parametrize("d", [2.5, 2.0, "2", 0])
    def test_standard_dimension_follows_integer_rule(self, d):
        with pytest.raises(InvalidParams,
                           match=f"^dimension must be an integer >= 1, got {re.escape(repr(d))}$"):
            ModelSpec.standard(d, 0.3)

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("rho", [math.nan, math.inf, -math.inf])
    def test_standard_rejects_non_finite_rho(self, d, rho):
        with pytest.raises(DomainError, match="needs a finite rho"):
            ModelSpec.standard(d, rho)

    def test_strict_mda_passes_for_chi(self):
        # the radial Gumbel-MDA probe at the thresholds a model check uses
        radial = ModelSpec.standard(2, 0.0).radial
        rows = probe_mda_limit(radial, [8.0, 32.0], [-1.0, 0.0, 1.0])
        assert max(r.rel_error for r in rows) <= 0.5

    def test_unit_diagonal_violation_reported(self):
        bad = np.array([[1.0, 0.2], [0.2, 0.5]])
        violations = validate_inputs(2, [1, 1], [1, 1], 1.0, bad)
        assert any("unit diagonal" in v for v in violations)

    def test_dimension_violation(self):
        violations = validate_inputs(0, [], [], 1.0, np.empty((0, 0)))
        assert any("dimension" in v for v in violations)

    def test_margin_length_violation(self):
        with pytest.raises(InvalidParams, match=re.escape("lam must have length d=3")):
            ModelSpec(d=3, lam=[1, 1], beta=[1, 1, 1], gamma=1.0, sigma=np.eye(3),
                      radial=make_radial("ChiOfDim", 3))

    @pytest.mark.parametrize("given", ["raw", "correlation_matrix"])
    def test_inputs_are_checked_and_converted_once(self, monkeypatch, given):
        # one pass: sigma is read once by the model and once by the one
        # CorrelationMatrix it builds, factorised once, the margins read once
        from tailsum import model, numerics

        calls = {"_sigma_inputs": 0, "_margin_inputs": 0, "cholesky": 0}

        def counting(module, name):
            inner = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            return counted

        for name in ("_sigma_inputs", "_margin_inputs"):
            counted = counting(numerics, name)
            monkeypatch.setattr(numerics, name, counted)
            monkeypatch.setattr(model, name, counted)
        monkeypatch.setattr(np.linalg, "cholesky", counting(np.linalg, "cholesky"))
        raw = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
        sigma = raw if given == "raw" else CorrelationMatrix(raw)
        calls.update(dict.fromkeys(calls, 0))
        spec = ModelSpec(d=3, lam=[1.0, 2.0, 0.5], beta=[1.0, 1.5, 2.0], gamma=1.0,
                         sigma=sigma, radial=make_radial("ChiOfDim", 3))
        assert calls == {"_sigma_inputs": 2, "_margin_inputs": 1, "cholesky": 1}
        np.testing.assert_array_equal(spec.permutation, [2, 1, 0])
        np.testing.assert_array_equal(spec.sigma.entries, raw[::-1, ::-1])

    @pytest.mark.parametrize("d", [2.7, 2.0, "2", None, 0, -1])
    def test_dimension_must_be_an_integer(self, d):
        # the integer rule of the n/seed checks: no float, however integral
        violations = validate_inputs(d, [1.0, 1.0], [1.0, 1.0], 1.0, np.eye(2))
        assert violations == [f"dimension must be an integer >= 1, got {d!r}"]
        with pytest.raises(InvalidParams, match="dimension must be an integer"):
            ModelSpec(d=d, lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=1.0,
                      sigma=equicorrelation(2, 0.0),
                      radial=make_radial("ChiOfDim", 2))

    def test_numpy_integer_dimension_accepted(self):
        assert validate_inputs(np.int64(2), [1.0, 1.0], [1.0, 1.0], 1.0,
                               np.eye(2)) == []
        ModelSpec(d=np.int64(2), lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=1.0,
                  sigma=equicorrelation(2, 0.0), radial=make_radial("ChiOfDim", 2))

    def test_not_positive_definite_reported(self):
        bad = np.array([[1.0, 1.0], [1.0, 1.0]])
        violations = validate_inputs(2, [1, 1], [1, 1], 1.0, bad)
        assert any("positive definite" in v for v in violations)

    @pytest.mark.parametrize("case", sorted(_SIGMAS))
    def test_validate_inputs_agrees_with_constructor(self, case):
        m = np.array(_SIGMAS[case])
        d = m.shape[0]
        violations = validate_inputs(d, [1.0] * d, [1.0] * d, 1.0, m)
        try:
            CorrelationMatrix(m)
        except (DomainError, NotPositiveDefinite):
            built = False
        else:
            built = True
        assert (violations == []) == built, violations
        if case.startswith("valid"):
            assert built

    @pytest.mark.parametrize("case", sorted(_ALL_SIGMAS))
    def test_constructor_raises_the_validate_inputs_list(self, case):
        # one sequence of checks: the model builds exactly when the list is
        # empty, and otherwise InvalidParams carries the list, never a
        # ValueError, TypeError or AttributeError of a conversion
        d, sigma, valid = _ALL_SIGMAS[case]
        violations = validate_inputs(d, [1.0] * d, [1.0] * d, 1.0, sigma)
        if valid is not None:
            assert (violations == []) == valid, violations
        build = lambda: ModelSpec(d=d, lam=[1.0] * d, beta=[1.0] * d, gamma=1.0,
                                  sigma=sigma, radial=make_radial("ChiOfDim", d))
        if violations:
            with pytest.raises(InvalidParams) as info:
                build()
            assert str(info.value) == "; ".join(violations)
        else:
            assert build().sigma.entries.shape == (d, d)

    @pytest.mark.parametrize("case", sorted(c for c, v in _RAW_SIGMAS.items()
                                            if not v[2] and v[0] == 2))
    def test_correlation_matrix_rejects_raw_input(self, case):
        # no float conversion first: strings, bools and ragged rows are
        # named by a DomainError, not parsed or raised as numpy's ValueError
        with pytest.raises(DomainError, match="^sigma "):
            CorrelationMatrix(_RAW_SIGMAS[case][1])

    def test_correlation_matrix_given_is_kept(self):
        sigma = equicorrelation(2, 0.5)
        spec = ModelSpec(d=2, lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=1.0,
                         sigma=sigma, radial=make_radial("ChiOfDim", 2))
        assert spec.sigma is sigma

    @pytest.mark.parametrize("lam, beta", [([1.0, 1.0], [1.0, 1.0]),
                                           ([0.5, 2.0], [1.0, 1.5])])
    def test_raw_matrix_gives_the_same_estimates(self, lam, beta):
        # a raw list and the CorrelationMatrix built from it give the same
        # entries, Cholesky factor and estimates, bit for bit, permuted or not
        raw = [[1.0, 0.3], [0.3, 1.0]]
        specs = [ModelSpec(d=2, lam=lam, beta=beta, gamma=1.0, sigma=sigma,
                           radial=make_radial("ChiOfDim", 2))
                 for sigma in (raw, CorrelationMatrix(np.array(raw)))]
        a, b = specs
        assert np.array_equal(a.sigma.entries, b.sigma.entries)
        assert np.array_equal(a.sigma.cholesky(), b.sigma.cholesky())
        for run in (conditional_max_mc, crude_mc):
            ea, eb = (run(spec, 20.0, 70000, 3) for spec in specs)
            assert (ea.value, ea.stderr) == (eb.value, eb.stderr)

    def test_radial_must_be_a_radial_law(self):
        with pytest.raises(InvalidParams,
                           match="^radial must be a RadialLaw, got 'ChiOfDim'$"):
            ModelSpec(d=2, lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=1.0,
                      sigma=equicorrelation(2, 0.0), radial="ChiOfDim")
        with pytest.raises(InvalidParams, match="radial must be a RadialLaw"):
            ModelSpec.standard(2, 0.0, radial="ChiOfDim")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_named(self, value):
        m = np.array([[1.0, value], [value, 1.0]])
        assert validate_inputs(2, [1, 1], [1, 1], 1.0, m) == [
            "sigma entries must be finite"]
        with pytest.raises(DomainError, match="^sigma entries must be finite$"):
            CorrelationMatrix(m)

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
        # a model config as read from a file is validated before building
        params = {"lam": (1.0, 1.0), "beta": (1.0, 1.0), "gamma": 1.0}
        params[name] = value if name == "gamma" else (value, 1.0)
        config = RunConfig(d=2, rho=0.0, **params)
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            config.build_model()

    @pytest.mark.parametrize("value", ["1", True, None, 10**400],
                             ids=["1", "True", "None", "1e400"])
    @pytest.mark.parametrize("name", ["lam", "beta", "gamma"])
    def test_non_real_parameter_rejected(self, name, value):
        # checked before the float conversion, which would parse "1", take
        # True as 1.0 and raise OverflowError on 10**400
        params = {"lam": [1.0, 1.0], "beta": [1.0, 1.0], "gamma": 1.0}
        params[name] = value if name == "gamma" else [1.0, value]
        message = f"{name} must be (a )?real number"
        with pytest.raises(InvalidParams, match=message):
            ModelSpec(d=2, sigma=equicorrelation(2, 0.0),
                      radial=make_radial("ChiOfDim", 2), **params)
        violations = validate_inputs(2, params["lam"], params["beta"],
                                     params["gamma"], np.eye(2))
        assert len(violations) == 1 and re.search(message, violations[0])
        with pytest.raises(InvalidParams, match=message):
            ScalingBundle(make_radial("ChiOfDim", 2), **params)

    def test_array_of_strings_rejected(self):
        with pytest.raises(InvalidParams, match="lam must be real numbers"):
            ModelSpec(d=2, lam=["1", "1"], beta=[1.0, 1.0], gamma=1.0,
                      sigma=equicorrelation(2, 0.0),
                      radial=make_radial("ChiOfDim", 2))

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

    def test_one_margin_off_the_gaussian_copula(self):
        # d = 1: T = +-1, so P(X > u) = tail_R(log u)/2 exactly; WeibullTail(2)
        # has tail exp(-r^2), and crude MC agrees
        spec = ModelSpec(d=1, lam=[1.0], beta=[1.0], gamma=1.0, sigma=[[1.0]],
                         radial=make_radial("WeibullTail", 2.0))
        exact = float(mp.exp(-mp.log(5) ** 2) / 2)
        assert marginal_tail(spec, 0, 5.0) == pytest.approx(exact, rel=1e-14)
        est = crude_mc(spec, 5.0, 200_000, 1)
        assert abs(est.value - exact) < 4 * est.stderr

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

    @pytest.mark.parametrize("j", [0.5, 1.0, -1, 2, "0"])
    @pytest.mark.parametrize("fn", [marginal_tail, marginal_log_tail,
                                    marginal_pdf, marginal_log_pdf])
    def test_margin_index_follows_integer_rule(self, standard_spec, fn, j):
        with pytest.raises(DomainError,
                           match=f"^margin index {re.escape(repr(j))} out of range for d=2$"):
            fn(standard_spec(0.0), j, 10.0)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("fn", [marginal_tail, marginal_log_tail,
                                    marginal_pdf, marginal_log_pdf])
    def test_non_finite_threshold_rejected(self, standard_spec, fn, u):
        with pytest.raises(DomainError, match="threshold u must be finite"):
            fn(standard_spec(0.0), 0, u)

    @pytest.mark.parametrize("u", ["100", True, None, 10**400],
                             ids=["100", "True", "None", "1e400"])
    @pytest.mark.parametrize("fn", [
        lambda spec, u: marginal_tail(spec, 0, u),
        lambda spec, u: approximate(spec, u),
        lambda spec, u: conditional_max_mc(spec, u, 256, 1),
        lambda spec, u: crude_mc(spec, u, 256, 1)],
        ids=["marginal_tail", "approximate", "conditional_max_mc", "crude_mc"])
    def test_non_real_threshold_rejected(self, standard_spec, fn, u):
        # not parsed from a string, nor taken as 1.0 from True, nor past
        # the float range, where isfinite raised OverflowError
        with pytest.raises(DomainError,
                           match=f"^threshold u must be a real number, got {re.escape(repr(u))}$"):
            fn(standard_spec(0.5), u)

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

    def test_deep_log_margins_match_the_trapezoid_oracle(self):
        # The linear quadrature tail of WeibullTail(3) underflowed between
        # u = 1e3 (about e^-334) and 1e4, where the log accessors and
        # approximate raised DomainError.  At d = 2, T = cos(theta) with
        # theta uniform, so P(R T > w) = E[tail_R(w / cos theta); cos > 0]
        # and the density of R T at w is E[f_R(w / cos theta) / cos theta;
        # cos > 0]: smooth periodic integrands, for which the trapezoid
        # rule in theta converges spectrally.
        spec = ModelSpec.standard(2, 0.3, radial=make_radial("WeibullTail", 3.0))
        nodes = 1 << 16
        cos = np.cos(2.0 * np.pi * np.arange(nodes) / nodes)
        cos = cos[cos > 0.0]
        for u in (1e3, 1e4, 1e12, 1e40):
            r = math.log(u) / cos
            log_tail = logsumexp(-r ** 3) - math.log(nodes)
            log_pdf = (logsumexp(math.log(3.0) + 2.0 * np.log(r) - r ** 3 - np.log(cos))
                       - math.log(nodes) - math.log(u))
            assert marginal_log_tail(spec, 0, u) == pytest.approx(log_tail, rel=1e-13)
            assert marginal_log_pdf(spec, 0, u) == pytest.approx(log_pdf, rel=1e-13)
        assert marginal_log_tail(spec, 0, 1e3) == -333.9865290892939
        apx = approximate(spec, 1e3)
        assert apx.log_first_order == -333.293381908734
        # -332.53313170816864 while the density was a central difference
        # of two linear quadrature tails
        assert apx.log_second_order == -332.5331318933083
        assert math.isfinite(approximate(spec, 1e4).log_second_order)

    def test_deep_log_tail_raises_no_warning(self):
        # at u = 1e100 scipy's quad detects roundoff, though the value is
        # the trapezoid oracle's to 2e-16; adaptive_quad's own error check
        # is the verdict, so no IntegrationWarning reaches the caller
        spec = ModelSpec.standard(2, 0.3, radial=make_radial("WeibullTail", 3.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_tail = marginal_log_tail(spec, 0, 1e100)
        nodes = 1 << 16
        cos = np.cos(2.0 * np.pi * np.arange(nodes) / nodes)
        r = math.log(1e100) / cos[cos > 0.0]
        assert log_tail == pytest.approx(
            logsumexp(-r ** 3) - math.log(nodes), rel=1e-15)

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
                marginal_pdf(chi_spec, 0, u), rel=1e-13)

    RAYLEIGH = make_radial("WeibullTail", 2.0, math.sqrt(2.0))

    @pytest.mark.parametrize("u", [0.4, 1.0 - 1e-6, 1.0 + 1e-6, 2.0, 10.0, 1e4,
                                   1e8, 1e20])
    def test_rayleigh_log_density_is_the_lognormal_closed_form(self, u):
        # WeibullTail(2, sqrt 2) at d = 2 is the Gaussian copula through the
        # sphere-coordinate integral; the central difference it replaced
        # was 2-4e-11 off and raised DomainError at u = 1e20
        sigma = np.array([[1.0, 0.3], [0.3, 1.0]])
        quad_spec = spec_with([1.0, 1.0], [1.0, 1.0], sigma, radial=self.RAYLEIGH)
        chi_spec = spec_with([1.0, 1.0], [1.0, 1.0], sigma)
        assert marginal_log_pdf(quad_spec, 0, u) == pytest.approx(
            marginal_log_pdf(chi_spec, 0, u), rel=1e-13)
        assert marginal_log_tail(quad_spec, 0, u) == pytest.approx(
            marginal_log_tail(chi_spec, 0, u), rel=1e-13)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    @pytest.mark.parametrize("radial", [("ChiOfDim", 1), ("ChiOfDim", 3),
                                        ("WeibullTail", 1.0), ("WeibullTail", 2.0),
                                        ("WeibullTail", 3.0),
                                        ("WeibullTail", 2.0, math.sqrt(2.0)),
                                        ("LognormalLogRadius",)])
    def test_at_the_scale_factor_no_accessor_gives_nan(self, d, radial):
        # u = lam_j is w = 0: the tail is 1/2 by symmetry; the density is
        # h(0) E[1/R], possibly infinite, and is refused, never a value
        # <= 0 or nan (the central difference gave -3.3e-11 for the
        # Rayleigh law)
        lam = [2.5] * d
        spec = spec_with(lam, [1.0] * d, equicorrelation(d, 0.3).entries,
                         radial=make_radial(*radial))
        for fn in (marginal_tail, marginal_log_tail, marginal_pdf, marginal_log_pdf):
            try:
                value = fn(spec, 0, 2.5)
            except DomainError:
                continue
            assert math.isfinite(value), fn
            if fn in (marginal_tail, marginal_pdf):
                assert value > 0.0, fn
        if not spec.is_gaussian_copula():
            assert marginal_tail(spec, 0, 2.5) == 0.5
            with pytest.raises(DomainError, match="at u=lam_j=2.5 .* E\\[1/R\\]"):
                marginal_pdf(spec, 0, 2.5)


class TestSampling:
    def test_reproducible(self, standard_spec):
        spec = standard_spec(0.5)
        a = sample(spec, 5000, seed=7)
        b = sample(spec, 5000, seed=7)
        np.testing.assert_array_equal(a.x, b.x)
        assert np.all(a.x > 0)

    @pytest.mark.parametrize("n, seed, match", BAD_RUNS)
    def test_rejects_non_integral_n_and_bad_seeds(self, standard_spec, n,
                                                  seed, match):
        with pytest.raises(InvalidParams, match=match):
            sample(standard_spec(0.5), n, seed)

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
        # pins the stream of sample and crude_mc: per chunk an SFC64
        # generator on the spawned child, the normals as a (d, m) array
        # with one draw per column, then y = chol @ e
        spec = ModelSpec.standard(3, 0.5)
        chol = spec.sigma.cholesky()
        child, = np.random.SeedSequence(8).spawn(1)
        e = np.random.Generator(np.random.SFC64(child)).standard_normal((3, 1000))
        expected = (chol @ e).T
        y = _draw_chunk(spec, _chunk_rng(child), 1000, chol)
        np.testing.assert_array_equal(y, expected)
        np.testing.assert_array_equal(sample(spec, 1000, seed=8).x, np.exp(expected))

    def test_other_radial_draw_is_rescaled_per_draw(self):
        # row i is R_i * chol @ e_i / |e_i|, built one draw at a time from
        # the same generator's normals and radii: a norm taken over the
        # wrong axis of e fails this
        law = make_radial("WeibullTail", 1.5, 2.0)
        spec = ModelSpec.standard(3, 0.4, radial=law)
        chol = spec.sigma.cholesky()
        m = 500
        y = _draw_chunk(spec, np.random.Generator(np.random.SFC64(3)), m, chol)
        rng = np.random.Generator(np.random.SFC64(3))
        e = rng.standard_normal((3, m))
        r = law.sampler(rng, m)
        expected = np.array([r[i] * (chol @ e[:, i]) / math.sqrt(math.fsum(e[:, i] ** 2))
                             for i in range(m)])
        assert y.shape == (m, 3)
        np.testing.assert_allclose(y, expected, rtol=1e-13, atol=1e-13)

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


class TestGaussianCopulaDecision:
    """ChiOfDim(k) with k != d is a valid elliptical model whose log-risks
    are not Gaussian: every accessor takes the quadrature path, and the
    closed forms refuse it."""

    # (d, k, lam, beta, gamma, sigma)
    MODELS = {
        "d2_chi3": (2, 3, [1.0, 1.0], [1.0, 1.0], 1.0, [[1.0, 0.0], [0.0, 1.0]]),
        "d2_chi5": (2, 5, [2.0, 0.5], [1.5, 1.0], 0.8, [[1.0, 0.5], [0.5, 1.0]]),
        "d3_chi2": (3, 2, [1.0, 1.0, 1.0], [1.0, 1.0, 1.0], 1.0,
                    [[1.0, 0.3, 0.3], [0.3, 1.0, 0.3], [0.3, 0.3, 1.0]]),
        "d3_chi4": (3, 4, [0.5, 2.0, 1.0], [1.0, 1.5, 0.7], 0.8,
                    [[1.0, 0.3, -0.2], [0.3, 1.0, 0.5], [-0.2, 0.5, 1.0]]),
    }

    @classmethod
    def _spec(cls, name):
        d, k, lam, beta, gamma, sigma = cls.MODELS[name]
        return spec_with(lam, beta, sigma, gamma=gamma,
                         radial=make_radial("ChiOfDim", k))

    @staticmethod
    def _coordinate_density(law, d, w):
        """Density at w > 0 of R * T (T a sphere coordinate), by its own
        quadrature: int f_R(w/t) h(t)/t dt with t = sin(s)."""
        from scipy import integrate

        const = math.gamma(d / 2.0) / (math.sqrt(math.pi) * math.gamma((d - 1) / 2.0))

        def f(s):
            t = math.sin(s)
            return law.density(w / t) / t * const * math.cos(s) ** (d - 2) if t > 0 else 0.0

        return integrate.quad(f, 0.0, 0.5 * math.pi, epsabs=0.0, epsrel=1e-11)[0]

    def test_only_the_matching_chi_dimension_is_gaussian(self):
        for name in self.MODELS:
            assert not self._spec(name).is_gaussian_copula()
        assert ModelSpec.standard(2, 0.0).is_gaussian_copula()
        assert ModelSpec.standard(3, 0.3).is_gaussian_copula()

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_accessors_match_quadrature(self, name):
        spec = self._spec(name)
        bg = spec.beta * spec.gamma
        for j in range(spec.d):
            for u in (spec.lam[j] * 3.0, spec.lam[j] * 30.0):
                w = math.log(u / spec.lam[j]) / bg[j]
                tail = coordinate_tail(spec.radial, spec.d, w)
                pdf = self._coordinate_density(spec.radial, spec.d, w) / (u * bg[j])
                assert marginal_tail(spec, j, u) == pytest.approx(tail, rel=1e-12)
                assert marginal_log_tail(spec, j, u) == pytest.approx(
                    math.log(tail), rel=1e-12)
                assert marginal_pdf(spec, j, u) == pytest.approx(pdf, rel=1e-10)
                assert marginal_log_pdf(spec, j, u) == pytest.approx(
                    math.log(pdf), abs=1e-10)
                # and not the log-normal closed form
                assert abs(marginal_tail(spec, j, u) - std_normal_tail(w)) > 1e-3 * tail

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_marginal_tail_matches_sample_frequency(self, name):
        spec = self._spec(name)
        n = 200_000
        batch = sample(spec, n, seed=5)
        for j in range(spec.d):
            u = spec.lam[j] * 10.0
            p = marginal_tail(spec, j, u)
            freq = float(np.mean(batch.x[:, j] > u))
            assert abs(freq - p) <= 5.0 * math.sqrt(p * (1.0 - p) / n), j

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_first_order_is_the_sum_of_the_quadrature_tails(self, name):
        spec = self._spec(name)
        bg = spec.beta * spec.gamma
        for u in (10.0, 100.0):
            tails = [coordinate_tail(spec.radial, spec.d,
                                     math.log(u / spec.lam[j]) / bg[j])
                     for j in range(spec.d)]
            assert approximate(spec, u).first_order == pytest.approx(
                math.fsum(tails), rel=1e-12)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_closed_forms_refuse_with_one_message(self, name):
        spec = self._spec(name)
        law = re.escape(f"(got {spec.radial!r} with d={spec.d})")
        with pytest.raises(WrongRadialLaw, match="^conditional_max_mc needs the "
                           "ChiOfDim radial matching the dimension " + law):
            conditional_max_mc(spec, 100.0, 1000, seed=1)
