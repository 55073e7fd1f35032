"""Radial laws, derived scalings, and condition probes."""

import math
import re
import warnings
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

from tailsum import (DomainError, InvalidParams, ModelSpec, NoFiniteLimit,
                     exp_scale, make_radial, probe_condition_rho,
                     probe_margin_mda_limit, probe_mda_limit,
                     probe_o_regular_variation)
from tailsum.numerics import adaptive_quad, equicorrelation, lognormal_log_pdf

mp.mp.dps = 40


def margin_spec(law=None, lam=(1.0,), beta=(1.0,), gamma=1.0, rho=0.0):
    """A model with the given margins, equicorrelated at rho."""
    d = len(lam)
    return ModelSpec(d=d, lam=list(lam), beta=list(beta), gamma=gamma,
                     sigma=equicorrelation(d, rho),
                     radial=law or make_radial("ChiOfDim", 2))


ALL_LAWS = [
    make_radial("ChiOfDim", 2),
    make_radial("ChiOfDim", 3),
    make_radial("ChiOfDim", 5),
    make_radial("WeibullTail", 1.0),
    make_radial("WeibullTail", 3.0),
    make_radial("WeibullTail", 2.0, math.sqrt(2.0)),
    make_radial("LognormalLogRadius"),
]
# laws with scaling b -> 0 (superexponential tails)
LIGHT_LAWS = ALL_LAWS[:3] + [ALL_LAWS[4], ALL_LAWS[5]]


class TestMakeRadial:
    def test_chi2_tail_closed_form(self):
        law = make_radial("ChiOfDim", 2)
        assert law.tail(2.0) == pytest.approx(math.exp(-2.0), rel=1e-12)

    def test_chi2_scaling_is_reciprocal(self):
        law = make_radial("ChiOfDim", 2)
        assert law.scaling(10.0) == pytest.approx(0.1, rel=1e-14)

    def test_exponential_tail(self):
        law = make_radial("WeibullTail", 1.0)
        assert law.tail(3.0) == pytest.approx(math.exp(-3.0), rel=1e-12)

    def test_weibull2_matches_chi2(self):
        # exp(-(r/sqrt 2)^2) = exp(-r^2/2): the two laws coincide
        w = make_radial("WeibullTail", 2.0, math.sqrt(2.0))
        c = make_radial("ChiOfDim", 2)
        for r in [0.5, 1.0, 3.0, 10.0]:
            assert w.tail(r) == pytest.approx(c.tail(r), rel=1e-12)
            assert w.scaling(r) == pytest.approx(c.scaling(r), rel=1e-12)

    def test_chi3_tail_against_oracle(self):
        law = make_radial("ChiOfDim", 3)
        for r in [1.0, 5.0, 20.0]:
            expected = float(mp.gammainc(1.5, r * r / 2, mp.inf, regularized=True))
            assert law.tail(r) == pytest.approx(expected, rel=1e-12)
            assert math.exp(law.log_tail(r)) == pytest.approx(expected, rel=1e-12)

    def test_chi_log_tail_beyond_underflow(self):
        law = make_radial("ChiOfDim", 3)
        r = 60.0  # r^2/2 = 1800, far past double underflow of the tail
        expected = float(mp.log(mp.gammainc(1.5, r * r / 2, mp.inf, regularized=True)))
        assert law.log_tail(r) == pytest.approx(expected, rel=1e-12)

    def test_lognormal_log_density_is_the_array_form(self):
        # the scalar math form against numerics.lognormal_log_pdf on
        # r = 10^k, k from -300 to 300, and on ten draws per decade
        law = make_radial("LognormalLogRadius")
        rng = np.random.default_rng(4)
        r = 10.0 ** np.concatenate([np.arange(-300, 301),
                                    rng.uniform(-300.0, 300.0, 6000)])
        scalar = np.array([law.log_density(float(x)) for x in r])
        np.testing.assert_allclose(scalar, lognormal_log_pdf(r),
                                   rtol=1e-15, atol=0.0)
        assert law.log_density(0.0) == -math.inf

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            make_radial("ChiOfDim", 0)
        with pytest.raises(InvalidParams):
            make_radial("WeibullTail", -1.0)
        with pytest.raises(InvalidParams):
            make_radial("NoSuchLaw")

    @pytest.mark.parametrize("params", [(math.nan,), (math.inf,), (-math.inf,),
                                        (2.0, math.nan), (2.0, math.inf),
                                        (2.0, 0.0)])
    def test_weibull_needs_finite_positive_params(self, params):
        with pytest.raises(InvalidParams, match="needs finite tau > 0 and scale > 0"):
            make_radial("WeibullTail", *params)

    @pytest.mark.parametrize("dim", [math.nan, math.inf, 2.5])
    def test_chi_needs_a_finite_integer_dimension(self, dim):
        with pytest.raises(InvalidParams, match="ChiOfDim needs an integer dimension"):
            make_radial("ChiOfDim", dim)

    @pytest.mark.parametrize("build, args", [
        (make_radial, ("WeibullTail", "x")),
        (make_radial, ("WeibullTail", None)),
        (make_radial, ("ChiOfDim", "2")),
        (make_radial, ("WeibullTail", "2")),
        (make_radial, ("WeibullTail", True)),
        (make_radial, ("WeibullTail", 2.0, False)),
        (equicorrelation, (2, "0.5")),
        (equicorrelation, (2, False)),
    ], ids=["weibull-x", "weibull-None", "chi-'2'", "weibull-'2'",
            "weibull-True", "weibull-scale-False", "rho-'0.5'", "rho-False"])
    def test_parameters_must_be_real_numbers(self, build, args):
        with pytest.raises(InvalidParams, match="must be (a )?real numbers?, got"):
            build(*args)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=repr)
    def test_tail_shape(self, law):
        grid = np.geomspace(0.05, 50.0, 60)
        vals = [law.tail(r) for r in grid]
        assert law.tail(0.0) == 1.0
        assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    @pytest.mark.parametrize("law", ALL_LAWS, ids=repr)
    def test_density_normalizes(self, law):
        # truncate where the remaining mass is below 1e-12
        hi = 1.0
        while law.tail(hi) > 1e-12:
            hi *= 2.0
        total = adaptive_quad(law.density, 0.0, hi, abs_tol=1e-10, limit=800)
        assert total == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=repr)
    def test_sampler_matches_tail(self, law):
        rng = np.random.default_rng(99)
        draws = law.sampler(rng, 200_000)
        assert np.all(draws > 0)
        for q in [0.5, 0.9, 0.99]:
            r = float(np.quantile(draws, q))
            # empirical tail at the empirical quantile ~ 1-q
            se = math.sqrt(q * (1 - q) / draws.size)
            assert law.tail(r) == pytest.approx(1 - q, abs=5 * se)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=repr)
    def test_gumbel_mda_ratio(self, law):
        # tail(r + x b(r))/tail(r) approaches exp(-x); here at finite r we
        # only require the rough band plus improvement with r (below).
        rows = probe_mda_limit(law, [32.0], [-1.0, 0.0, 1.0])
        for row in rows:
            assert row.ratio == pytest.approx(row.target, rel=0.35)

    @pytest.mark.parametrize("law", LIGHT_LAWS, ids=repr)
    def test_mda_ratio_converges(self, law):
        lo = probe_mda_limit(law, [8.0], [-2.0, -1.0, 1.0, 2.0])
        hi = probe_mda_limit(law, [32.0], [-2.0, -1.0, 1.0, 2.0])
        for a, b in zip(lo, hi):
            assert b.rel_error <= a.rel_error + 1e-12

    def test_mda_ratio_exact_at_zero(self):
        law = make_radial("ChiOfDim", 2)
        rows = probe_mda_limit(law, [math.exp(10.0)], [0.0])
        assert rows[0].ratio == 1.0


class TestMarginMdaProbe:
    def test_lognormal_margin_ratio_bands(self):
        rows = probe_margin_mda_limit(ModelSpec.standard(2, 0.0), 0, [1e8],
                                      [1.0, -2.0])
        up, down = rows
        assert abs(up.ratio - math.exp(-1.0)) / math.exp(-1.0) < 0.07
        assert abs(down.ratio - math.exp(2.0)) / math.exp(2.0) < 0.15


class TestExpScale:
    def test_chi2_closed_form(self):
        law = make_radial("ChiOfDim", 2)
        assert exp_scale(10.0, law) == pytest.approx(10.0 / math.log(10.0), rel=1e-14)
        assert exp_scale(100.0, law) == pytest.approx(100.0 / math.log(100.0), rel=1e-14)

    def test_exponential_law(self):
        law = make_radial("WeibullTail", 1.0)
        u = math.exp(2.0)
        assert exp_scale(u, law) == pytest.approx(u, rel=1e-14)

    def test_domain(self):
        law = make_radial("ChiOfDim", 2)
        with pytest.raises(Exception):
            exp_scale(1.0, law)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, u):
        with pytest.raises(DomainError, match="threshold u must be finite"):
            exp_scale(u, make_radial("ChiOfDim", 2))

    def test_chi2_identity_on_log_grid(self):
        law = make_radial("ChiOfDim", 2)
        for u in np.geomspace(10.0, 1e12, 45):
            assert exp_scale(u, law) == pytest.approx(u / math.log(u), rel=1e-14)

    @pytest.mark.parametrize("law", ALL_LAWS, ids=repr)
    def test_o_regular_variation(self, law):
        grid = np.geomspace(1e3, 1e9, 25)
        devs = probe_o_regular_variation(law, grid)
        assert max(devs) <= 0.02

    @pytest.mark.parametrize("law", LIGHT_LAWS, ids=repr)
    def test_exp_scale_sublinear(self, law):
        # e(u)/u -> 0 for the superexponential laws (not for the
        # log-normal radius, whose induced scaling grows superlinearly)
        ratios = [exp_scale(u, law) / u for u in np.geomspace(1e2, 1e12, 25)]
        assert all(a > b for a, b in zip(ratios, ratios[1:]))
        assert ratios[-1] < 0.05


class TestMarginScale:
    def test_standard_margin_scale(self):
        b = margin_spec()
        assert b.margin_scale(0, 10.0) == pytest.approx(10.0 / math.log(10.0), rel=1e-14)
        assert b.margin_scale(0, 50.0) == pytest.approx(50.0 / math.log(50.0), rel=1e-14)

    def test_scale_factor_shift(self):
        b = margin_spec(lam=(2.0,))
        expected = 100.0 / (math.log(100.0) - math.log(2.0))
        assert b.margin_scale(0, 100.0) == pytest.approx(expected, rel=1e-12)
        assert b.margin_scale(0, 100.0) == pytest.approx(25.5622218635, rel=1e-10)

    def test_reduces_to_exp_scale(self):
        b = margin_spec()
        for u in np.geomspace(10.0, 1e10, 20):
            assert b.margin_scale(0, u) == pytest.approx(exp_scale(u, b.radial),
                                                         rel=1e-14)

    def test_margin_scale_domain(self):
        b = margin_spec(lam=(2.0,))
        with pytest.raises(DomainError, match="needs u > lam_j"):
            b.margin_scale(0, 1.5)

    @pytest.mark.parametrize("u", [1e100, 1e160, 1e300])
    def test_finite_where_the_power_of_u_overflows(self, u):
        # v = (u/lam)^(1/(beta gamma)) = u^2 passes 1.8e308 from u = 1.4e154;
        # the scaling is formed from log v, so it stays the closed form
        b = margin_spec(gamma=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            scale = b.margin_scale(0, u)
        assert scale == pytest.approx(0.25 * u / math.log(u), rel=1e-14)

    def test_lognormal_closed_form_any_beta(self):
        b = margin_spec(lam=(1.5,), beta=(2.0,), gamma=0.5)
        u = 300.0
        expected = (2.0 * 0.5) ** 2 * u / (math.log(u) - math.log(1.5))
        assert b.margin_scale(0, u) == pytest.approx(expected, rel=1e-12)


class TestMarginScaleLimit:
    def test_lognormal_closed_form(self):
        assert margin_spec().margin_scale_limit(0) == 1.0
        assert margin_spec(beta=(2.0,), gamma=0.5).margin_scale_limit(0) == 1.0
        assert margin_spec(make_radial("ChiOfDim", 3),
                           beta=(3.0,)).margin_scale_limit(0) == 9.0

    def test_weibull3_limit_is_zero(self):
        b = margin_spec(make_radial("WeibullTail", 3.0))
        assert b.margin_scale_limit(0) == pytest.approx(0.0, abs=1e-6)

    def test_probe_agrees_with_closed_form(self):
        # WeibullTail(2, sqrt 2) is ChiOfDim(2) in disguise: its
        # kappa = scale^2/2 must give the chi limit 1, whatever lam
        b = margin_spec(make_radial("WeibullTail", 2.0, math.sqrt(2.0)))
        assert b.margin_scale_limit(0) == pytest.approx(1.0, rel=1e-9)
        b2 = margin_spec(make_radial("WeibullTail", 2.0, math.sqrt(2.0)),
                         lam=(2.0,))
        assert b2.margin_scale_limit(0) == pytest.approx(1.0, rel=5e-3)

    def test_diverging_probes_raise(self):
        heavy = margin_spec(make_radial("LognormalLogRadius"))
        with pytest.raises(NoFiniteLimit):
            heavy.margin_scale_limit(0)
        slow = margin_spec(make_radial("WeibullTail", 1.0))
        with pytest.raises(NoFiniteLimit):
            slow.margin_scale_limit(0)

    @pytest.mark.parametrize("law, kappa", [
        (make_radial("ChiOfDim", 2), 1.0),
        (make_radial("ChiOfDim", 5), 1.0),
        (make_radial("WeibullTail", 3.0), 0.0),
        (make_radial("WeibullTail", 2.0), 0.5),
        (make_radial("WeibullTail", 2.0, 3.0), 4.5),
        (make_radial("WeibullTail", 1.0), math.inf),
        (make_radial("WeibullTail", 1.5, 2.0), math.inf),
        (make_radial("LognormalLogRadius"), math.inf),
    ], ids=repr)
    def test_limit_is_gamma_beta_squared_times_kappa(self, law, kappa):
        assert law.scaling_limit == kappa
        gamma = 1.2
        spec = margin_spec(law, [0.5, 2.0, 10.0], [1.0, 0.7, 1.3], gamma)
        for j in range(3):
            if math.isinf(kappa):
                with pytest.raises(NoFiniteLimit, match=re.escape(repr(law))):
                    spec.margin_scale_limit(j)
            else:
                assert spec.margin_scale_limit(j) == (gamma * spec.beta[j]) ** 2 * kappa

    @pytest.mark.parametrize("law", [make_radial("WeibullTail", 2.0),
                                     make_radial("WeibullTail", 2.0, math.sqrt(2.0)),
                                     make_radial("WeibullTail", 3.0),
                                     make_radial("ChiOfDim", 3)], ids=repr)
    def test_kappa_is_the_limit_of_r_times_scaling(self, law):
        # r * b(r) approaches kappa: 1/(3r) for WeibullTail(3), O(1/r^2) for chi
        for r in (1e8, 1e10):
            assert r * law.scaling(r) == pytest.approx(law.scaling_limit,
                                                       abs=1e-7)

    def test_no_module_imports_scipy_optimize(self):
        src = Path(__file__).resolve().parent.parent / "src" / "tailsum"
        pattern = re.compile(r"scipy\.optimize|from\s+scipy\s+import[^\n]*\boptimize\b")
        users = [p.name for p in sorted(src.rglob("*.py"))
                 if pattern.search(p.read_text(encoding="utf-8"))]
        assert users == []


class TestConditionProbe:
    def test_independent_case_holds_at_100(self):
        rows = probe_condition_rho(ModelSpec.standard(2, 0.0), 100.0, c=1.0,
                                   epsilon=1.0)
        lu = math.log(100.0)
        expected = 1.0 / math.sqrt(lu) - math.log(100.0 / lu) / lu
        for row in rows:
            assert row.margin == pytest.approx(expected, rel=1e-12)
            assert row.margin == pytest.approx(-0.202386556034, rel=1e-9)
            assert row.margin < 0

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, u):
        with pytest.raises(DomainError, match="threshold u must be finite"):
            probe_condition_rho(ModelSpec.standard(2, 0.0), u)

    def test_one_row_per_ordered_pair_of_the_sorted_margins(self):
        # beta = (2, 1, 1.5) is stored as (2, 1.5, 1): the rows read the
        # model's own sigma and margins, in its order
        spec = margin_spec(lam=[1.0, 1.0, 1.0], beta=[2.0, 1.0, 1.5], rho=0.3)
        rows = probe_condition_rho(spec, 100.0)
        assert [(r.j, r.i) for r in rows] == [(j, i) for j in range(3)
                                               for i in range(3) if i != j]
        lu = math.log(100.0)
        for r in rows:
            rhs = spec.beta[r.j] / spec.beta[r.i] * math.log(
                spec.margin_scale(r.i, 100.0)) / lu
            assert r.rhs == rhs
            assert r.lhs == 0.3 + math.sqrt((1.0 - 0.09) / lu)

    @pytest.mark.parametrize("sigma, match", [
        ([["1", "0.5"], ["0.5", "1"]], "sigma entries must be real numbers"),
        ([[1.0, 0.5], [0.5]], "sigma must be a 2x2 matrix"),
        (np.eye(3), "sigma must be a 2x2 matrix"),
    ], ids=["strings", "ragged", "wrong_size"])
    def test_sigma_checked_before_it_is_read(self, sigma, match):
        # the probe reads spec.sigma, so a bad matrix stops at the model
        with pytest.raises(InvalidParams, match=match):
            probe_condition_rho(ModelSpec(d=2, lam=[1.0, 1.0], beta=[1.0, 1.0],
                                          gamma=1.0, sigma=sigma,
                                          radial=make_radial("ChiOfDim", 2)),
                                100.0)

    def test_correlation_matrix_accepted(self):
        raw = np.array([[1.0, 0.5], [0.5, 1.0]])
        a, b = (ModelSpec(d=2, lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=1.0,
                          sigma=sigma, radial=make_radial("ChiOfDim", 2))
                for sigma in (equicorrelation(2, 0.5), raw))
        assert probe_condition_rho(a, 100.0) == probe_condition_rho(b, 100.0)

    def test_high_correlation_fails_at_100(self):
        rows = probe_condition_rho(ModelSpec.standard(2, 0.99), 100.0, c=1.0,
                                   epsilon=1.0)
        assert all(row.margin > 0 for row in rows)

    def test_margin_monotone_in_correlation(self):
        u = 100.0
        margins = []
        for rho in [-0.9, -0.5, 0.0, 0.5, 0.9]:
            rows = probe_condition_rho(ModelSpec.standard(2, rho), u)
            margins.append(rows[0].margin)
        assert all(a < b for a, b in zip(margins, margins[1:]))
