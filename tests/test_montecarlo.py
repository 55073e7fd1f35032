"""Monte Carlo estimator contracts: unbiasedness, precision, determinism."""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

from reference_tables import matches_printed
from tailsum import (CorrelationMatrix, DomainError, InvalidParams, ModelSpec,
                     WrongRadialLaw, conditional_max_mc, crude_mc, make_radial,
                     marginal_tail, mc_table, sample)


def sum_tail_dblquad(rho, u, lam=(1.0, 1.0), bg=(1.0, 1.0)):
    """Independent oracle: P(X1 + X2 > u) by double quadrature of the
    bivariate normal density of the log-coordinates."""
    s2 = 1.0 - rho * rho
    norm = 1.0 / (2.0 * math.pi * math.sqrt(s2))

    def density(y2, y1):
        q = (y1 * y1 - 2.0 * rho * y1 * y2 + y2 * y2) / s2
        return norm * math.exp(-0.5 * q)

    def y2_low(y1):
        x1 = lam[0] * math.exp(bg[0] * y1)
        if x1 >= u:
            return -14.0
        return math.log((u - x1) / lam[1]) / bg[1]

    hi = math.log(u / lam[0]) / bg[0] if u > lam[0] else -14.0
    a, _ = integrate.dblquad(density, hi, 14.0, -14.0, 14.0,
                             epsabs=1e-13, epsrel=1e-10)
    b, _ = integrate.dblquad(density, -14.0, hi, y2_low, 14.0,
                             epsabs=1e-13, epsrel=1e-10)
    return a + b


class TestCrude:
    def test_threshold_zero_always_hits(self, standard_spec):
        est = crude_mc(standard_spec(0.0), 0.0, 1000, seed=3)
        assert est.value == 1.0
        assert est.stderr == 0.0

    def test_hit_count_is_integer(self, standard_spec):
        est = crude_mc(standard_spec(0.0), 10.0, 12345, seed=3)
        hits = est.value * est.n
        assert hits == pytest.approx(round(hits), abs=1e-9)

    def test_matches_sample_frequency(self, standard_spec):
        sigma = CorrelationMatrix(np.array([[1.0, -0.3], [-0.3, 1.0]]))
        heterogeneous = ModelSpec(d=2, lam=[0.5, 2.0], beta=[1.0, 1.5],
                                  gamma=0.8, sigma=sigma,
                                  radial=make_radial("ChiOfDim", 2))
        n = 70_000
        for spec, seed, u in ((standard_spec(0.5), 99, 8.0),
                              (heterogeneous, 98, 6.0)):
            est = crude_mc(spec, u, n, seed)
            batch = sample(spec, n, seed)
            assert 0.0 < est.value < 1.0
            assert est.value == (batch.x.sum(axis=1) > u).mean()

    def test_table3_anchor(self, standard_spec):
        est = crude_mc(standard_spec(0.0), 10.0, 10**6, seed=31)
        assert abs(est.value - 0.0337) <= 3 * est.stderr + 5e-5

    def test_stderr_formula(self, standard_spec):
        est = crude_mc(standard_spec(0.0), 10.0, 50_000, seed=4)
        expected = math.sqrt(est.value * (1 - est.value) / est.n)
        assert est.stderr == pytest.approx(expected, rel=1e-12)

    def test_works_for_any_radial(self):
        spec = ModelSpec.standard(2, 0.3, radial=make_radial("WeibullTail", 3.0))
        est = crude_mc(spec, 2.0, 20_000, seed=5)
        assert 0.0 < est.value < 1.0

    def test_rejects_bad_n(self, standard_spec):
        with pytest.raises(InvalidParams):
            crude_mc(standard_spec(0.0), 1.0, 0, seed=1)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, standard_spec, u):
        with pytest.raises(DomainError):
            crude_mc(standard_spec(0.0), u, 1000, seed=1)


class TestConditional:
    def test_single_margin_exact(self):
        spec = ModelSpec.standard(1, 0.0)
        est = conditional_max_mc(spec, 7.0, 1000, seed=11)
        assert est.value == pytest.approx(marginal_tail(spec, 0, 7.0), rel=1e-14)
        assert est.stderr == 0.0

    def test_needs_gaussian_copula(self):
        spec = ModelSpec.standard(2, 0.0, radial=make_radial("WeibullTail", 3.0))
        with pytest.raises(WrongRadialLaw):
            conditional_max_mc(spec, 5.0, 100, seed=1)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_threshold(self, standard_spec, u):
        with pytest.raises(DomainError):
            conditional_max_mc(standard_spec(0.5), u, 1000, seed=1)

    def test_stderr_survives_tiny_weights(self):
        # estimate ~5.6e-228: the squared weights underflow unless each
        # chunk is scaled before squaring
        spec = ModelSpec(d=2, lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=0.5,
                         sigma=ModelSpec.standard(2, 0.5).sigma,
                         radial=make_radial("ChiOfDim", 2))
        ests = [conditional_max_mc(spec, 1e7, 150_000, seed=8, workers=w)
                for w in (1, 2)]
        assert ests[0] == replace(ests[1], elapsed=ests[0].elapsed)
        est = ests[0]
        assert 1e-230 < est.value < 1e-225
        assert math.isfinite(est.stderr)
        assert 0.0 < est.stderr < est.value

    def test_matches_quadrature_oracle_small_u(self, standard_spec):
        spec = standard_spec(0.0)
        truth = sum_tail_dblquad(0.0, 5.0)
        est = conditional_max_mc(spec, 5.0, 10**5, seed=21)
        assert abs(est.value - truth) <= 3 * est.stderr

    def test_matches_quadrature_negative_rho(self, standard_spec):
        spec = standard_spec(-0.9)
        truth = sum_tail_dblquad(-0.9, 5.0)
        est = conditional_max_mc(spec, 5.0, 10**5, seed=22)
        assert abs(est.value - truth) <= 3 * est.stderr
        assert matches_printed(truth, "0.121", slack=1.0)

    def test_untilted_also_unbiased(self, standard_spec):
        spec = standard_spec(0.5)
        truth = sum_tail_dblquad(0.5, 10.0)
        est = conditional_max_mc(spec, 10.0, 10**5, seed=23, tilt=False)
        assert abs(est.value - truth) <= 3 * est.stderr

    def test_deep_tail_one_percent_precision(self, standard_spec):
        spec = standard_spec(0.9)
        est = conditional_max_mc(spec, 1000.0, 2 * 10**5, seed=24)
        assert est.stderr / est.value < 0.01
        assert abs(est.value - 1.1e-10) < 0.5 * 1.1e-10

    def test_variance_reduction_over_crude(self, standard_spec):
        spec = standard_spec(0.0)
        n = 10**5
        for u in [30.0, 50.0]:
            crude = crude_mc(spec, u, n, seed=25)
            cond = conditional_max_mc(spec, u, n, seed=25)
            assert crude.value > 0
            ratio = (crude.stderr / crude.value) / (cond.stderr / cond.value)
            assert ratio >= 10.0

    def test_unbiasedness_coverage(self):
        # random bivariate models checked against the double-quadrature
        # oracle; stderr must cover the truth in at least 47 of 50 cases
        rng = np.random.default_rng(777)
        hits, total = 0, 50
        for k in range(total):
            rho = float(rng.uniform(-0.9, 0.9))
            lam = rng.uniform(0.5, 2.0, size=2)
            beta = rng.uniform(0.5, 1.6, size=2)
            gamma = float(rng.uniform(0.6, 1.5))
            from tailsum import CorrelationMatrix

            sigma = CorrelationMatrix(np.array([[1.0, rho], [rho, 1.0]]))
            spec = ModelSpec(d=2, lam=lam, beta=beta, gamma=gamma,
                             sigma=sigma, radial=make_radial("ChiOfDim", 2))
            # pick u with a comfortably estimable tail
            u = float(np.sum(spec.lam) * rng.uniform(1.5, 6.0))
            bg = spec.beta * spec.gamma
            truth = sum_tail_dblquad(rho, u, tuple(spec.lam), tuple(bg))
            if truth < 1e-3:
                continue
            est = conditional_max_mc(spec, u, 20_000, seed=1000 + k)
            if abs(est.value - truth) <= 3 * max(est.stderr, 1e-12):
                hits += 1
        assert total - hits <= 3

    def test_worker_count_independence(self, standard_spec):
        spec = standard_spec(0.5)
        ests = [conditional_max_mc(spec, 30.0, 3 * 10**5, seed=42, workers=w)
                for w in (1, 2, 8)]
        assert len({e.value for e in ests}) == 1
        assert len({e.stderr for e in ests}) == 1

    def test_crude_worker_count_independence(self, standard_spec):
        spec = standard_spec(0.5)
        ests = [crude_mc(spec, 10.0, 3 * 10**5, seed=42, workers=w)
                for w in (1, 2, 8)]
        assert len({e.value for e in ests}) == 1

    def test_env_thread_override(self, standard_spec, monkeypatch):
        spec = standard_spec(0.5)
        base = conditional_max_mc(spec, 30.0, 10**5, seed=43)
        monkeypatch.setenv("TAILSUM_THREADS", "4")
        env = conditional_max_mc(spec, 30.0, 10**5, seed=43)
        assert env.value == base.value


class TestMcTable:
    def test_single_entry_matches_direct(self, standard_spec):
        spec = standard_spec(0.0)
        table = mc_table(spec, [10.0], 50_000, seed=9)
        direct = conditional_max_mc(spec, 10.0, 50_000, seed=9)
        assert table[0].value == direct.value

    def test_per_threshold_seed_derivation(self, standard_spec):
        spec = standard_spec(0.0)
        table = mc_table(spec, [10.0, 30.0], 20_000, seed=9)
        assert table[1].value == conditional_max_mc(spec, 30.0, 20_000,
                                                    seed=9 ^ 1).value

    def test_empty_list_rejected(self, standard_spec):
        with pytest.raises(InvalidParams):
            mc_table(standard_spec(0.0), [], 100, seed=1)

    def test_estimator_choice(self, standard_spec):
        rows = mc_table(standard_spec(0.0), [5.0], 10_000, seed=2,
                        estimator="crude")
        assert rows[0].estimator == "crude"
        with pytest.raises(InvalidParams):
            mc_table(standard_spec(0.0), [5.0], 100, seed=2, estimator="fancy")
