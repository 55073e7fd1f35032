"""Monte Carlo estimator contracts: unbiasedness, precision, determinism."""

import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtri

from reference_tables import matches_printed
from tailsum import (CorrelationMatrix, DomainError, InvalidParams, ModelSpec,
                     WrongRadialLaw, conditional_max_mc, crude_mc, make_radial,
                     marginal_tail, mc_table, montecarlo, sample)
from tailsum.cli import load_config
from tailsum.montecarlo import (_block_layout, _conditional_plan, _find_shift,
                                _integrand_log, _lattice_classes, _lattice_ndtri,
                                _ndtri_tables, _shift_rows, _sobol_base,
                                get_estimator)
from tailsum.numerics import std_normal_log_tail


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

    def test_no_hits_report_the_stderr_of_one_hit(self, standard_spec):
        n = 10**4
        est = crude_mc(standard_spec(0.5), 1e6, n, seed=3)
        assert est.value == 0.0
        assert est.stderr == math.sqrt((1 / n) * (1 - 1 / n) / n)

    def test_all_hits_above_zero_report_the_stderr_of_one_hit(self, standard_spec):
        n = 1000
        est = crude_mc(standard_spec(0.5), 1e-300, n, seed=3)
        assert est.value == 1.0
        assert est.stderr == math.sqrt((1 / n) * (1 - 1 / n) / n)

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
        with pytest.raises(DomainError, match="threshold u must be finite"):
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
        with pytest.raises(DomainError, match="threshold u must be finite"):
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

    @pytest.mark.parametrize("u", [1e9, 1e12])
    def test_underflow_raises_naming_u(self, u):
        spec = ModelSpec(d=2, lam=[1.0, 1.0], beta=[1.0, 1.0], gamma=0.5,
                         sigma=ModelSpec.standard(2, 0.5).sigma,
                         radial=make_radial("ChiOfDim", 2))
        with pytest.raises(DomainError, match=f"u={u!r} underflows.*log_first_order"):
            conditional_max_mc(spec, u, 1000, seed=1)

    def test_single_margin_underflow_raises(self):
        with pytest.raises(DomainError, match="underflows"):
            conditional_max_mc(ModelSpec.standard(1, 0.0), 1e300, 1000, seed=1)

    # (model, u, n, seed, tilt) -> (value, stderr) as computed with ndtri
    # at every point and one shift search per margin; the lattice inverse
    # may move them by rounding only, the shared search not at all.
    GOLDEN = [
        ("table1", 10.0, 10**5, 11, True,
         0.05207111597879466, 1.2004398111158793e-05),
        ("d2_rho0.5", 30.0, 50_000, 6, False,
         0.0016558919358503645, 3.8926340469669735e-06),
        ("d2_rho0.3", 50.0, 2**19, 2, True,
         0.0001546803688898748, 4.663811999437387e-09),
        ("d2_rho0.9", 1000.0, 2**20, 3, True,
         1.1028054273663516e-10, 4.2819495679392115e-15),
        ("d5_rho0.5", 1e4, 150_000, 8, True,
         1.565876675861755e-19, 7.220447596354581e-23),
        ("heterogeneous3", 20.0, 100_000, 9, True,
         0.03708716487390271, 4.675421101253845e-06),
    ]

    @pytest.mark.parametrize("model, u, n, seed, tilt, value, stderr", GOLDEN,
                             ids=[g[0] for g in GOLDEN])
    def test_seeded_estimates_match_golden_values(self, model, u, n, seed,
                                                  tilt, value, stderr):
        if model == "table1":
            spec = load_config("table1").build_model()
        elif model == "heterogeneous3":
            spec = _heterogeneous3()
        else:
            d, rho = model.split("_rho")
            spec = ModelSpec.standard(int(d[1:]), float(rho))
        est = conditional_max_mc(spec, u, n, seed, tilt=tilt)
        assert est.value == pytest.approx(value, rel=1e-12)
        assert est.stderr == pytest.approx(stderr, rel=1e-9)

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


class TestRqmc:
    @pytest.mark.parametrize("dim", [2, 4, 10, 20])
    def test_sobol_base_matches_scipy(self, dim):
        from scipy.stats import qmc

        expected = qmc.Sobol(dim, scramble=False).random_base2(16)
        assert np.array_equal(_sobol_base(dim).T / 65536.0, expected)

    def test_estimate_does_not_import_scipy_stats(self):
        code = ("import sys, tailsum; "
                "tailsum.conditional_max_mc(tailsum.ModelSpec.standard(2, 0.5), "
                "10.0, 1000, seed=1); "
                "print('scipy.stats' in sys.modules)")
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize("n, rounded", [(1, 16), (1000, 1024),
                                            (150_000, 155_648),
                                            (10**6, 1_015_808),
                                            (2 * 10**6, 2_031_616)])
    def test_n_rounds_up_to_whole_blocks(self, standard_spec, n, rounded):
        block, blocks = _block_layout(n)
        assert block & (block - 1) == 0
        assert block <= max(1, min(65536, n / 16)) < 2 * block
        assert blocks >= 16
        assert blocks == 16 or blocks * block - n < block
        est = conditional_max_mc(standard_spec(0.5), 10.0, n, seed=3, tilt=False)
        assert est.n == blocks * block == rounded

    def test_shifted_points_stay_inside_the_unit_interval(self):
        base = _sobol_base(4)
        top = _shift_rows(base, np.full((4, 1), 0xFFFF, dtype=np.uint16),
                          np.full((4, 1), 2**36 - 1))
        bottom = _shift_rows(base, np.zeros((4, 1), dtype=np.uint16),
                             np.zeros((4, 1), dtype=np.int64))
        for x in (top, bottom):
            assert 0.0 < x.min() and x.max() < 1.0
            assert np.all(np.isfinite(ndtri(x)))


def _heterogeneous3() -> ModelSpec:
    sigma = CorrelationMatrix(np.array([[1.0, 0.3, -0.2], [0.3, 1.0, 0.5],
                                        [-0.2, 0.5, 1.0]]))
    return ModelSpec(d=3, lam=[0.5, 2.0, 1.0], beta=[1.0, 1.5, 0.7],
                     gamma=0.8, sigma=sigma, radial=make_radial("ChiOfDim", 3))


class TestLatticeNdtri:
    @pytest.mark.parametrize("bits", [0, 8, 15, 16])
    def test_rows_hold_each_lattice_digit_once(self, bits):
        rows = _sobol_base(10)[:, :1 << bits]
        expected = np.arange(1 << bits) << (16 - bits)
        for row in rows:
            assert np.array_equal(np.sort(row), expected)

    @pytest.mark.parametrize("bits", [0, 1, 8, 15, 16])
    def test_matches_ndtri_on_every_cell(self, bits):
        rows = _sobol_base(4)[:, :1 << bits]
        tables = _ndtri_tables(_lattice_classes(1 << bits))
        tail = tables[-1]
        rng = np.random.default_rng(bits)
        shifts = [(np.full((4, 1), h, dtype=np.uint16), np.full((4, 1), k))
                  for h in (0, 0xFFFF) for k in (0, 2**36 - 1)]
        shifts += [montecarlo._draw_shift(4, rng) for _ in range(8)]
        for h, k in shifts:
            got = _lattice_ndtri(rows, h, k, tables)
            expected = ndtri(_shift_rows(rows, h, k))
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - expected)) <= 1e-14
            cell = np.bitwise_xor(rows, h)
            in_tail = (cell < tail) | (cell >= 65536 - tail)
            assert np.array_equal(got[in_tail], expected[in_tail])

    def test_tables_take_one_mib_and_are_built_once(self):
        tables = _ndtri_tables(2)
        assert sum(t.nbytes for t in tables[:5]) <= 2**20
        assert _ndtri_tables(2) is tables
        assert 0.01 < 2 * tables[-1] / 65536 < 0.03


def _scalar_integrand_log(spec, u, j, oth, alpha, sd, sub):
    """The integrand one point at a time, with Python scalars."""
    sub_inv = np.linalg.inv(sub)
    lam_o = spec.lam[oth]
    bg_o = spec.beta[oth] * spec.gamma

    def h(y):
        x = lam_o * np.exp(bg_o * y)
        threshold = max(float(np.max(x)), u - float(np.sum(x)))
        if not 0.0 < threshold < math.inf:
            return -math.inf
        z = (math.log(threshold / spec.lam[j]) / (spec.beta[j] * spec.gamma)
             - float(alpha @ y)) / sd
        return std_normal_log_tail(z) - 0.5 * float(y @ sub_inv @ y)

    return h


class TestShiftSearch:
    @staticmethod
    def _margin(spec, j):
        oth = np.array([i for i in range(spec.d) if i != j])
        sig = spec.sigma.entries
        sub = sig[np.ix_(oth, oth)]
        alpha = np.linalg.solve(sub, sig[oth, j])
        sd = math.sqrt(1.0 - float(sig[oth, j] @ alpha))
        return oth, alpha, sd, sub

    def test_batched_integrand_equals_a_per_point_loop(self):
        # beta 40 on one margin: exp overflows at the far scan points
        sigma = CorrelationMatrix(np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.6],
                                            [0.2, 0.6, 1.0]]))
        spec = ModelSpec(d=3, lam=[1.0, 0.5, 2.0], beta=[1.0, 40.0, 0.8],
                         gamma=1.0, sigma=sigma,
                         radial=make_radial("ChiOfDim", 3))
        u = 1e10
        overflowed = 0
        for j in range(3):
            oth, alpha, sd, sub = self._margin(spec, j)
            reg = sub @ alpha
            directions = [np.ones(2), reg / np.max(np.abs(reg)),
                          -reg / np.max(np.abs(reg))]
            scan = np.array([t * v for v in directions
                             for t in np.linspace(-3.0, 30.0, 121)])
            got = _integrand_log(spec, u, j, oth, alpha, sd, sub)(scan)
            h = _scalar_integrand_log(spec, u, j, oth, alpha, sd, sub)
            with np.errstate(over="ignore"):
                expected = np.array([h(y) for y in scan])
            assert np.any(np.isfinite(expected))
            overflowed += np.count_nonzero(np.isinf(expected))
            np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0.0)
        assert overflowed > 0

    @staticmethod
    def _counting(monkeypatch):
        calls = []
        find_shift = montecarlo._find_shift

        def counting(*args):
            calls.append(args[2])
            return find_shift(*args)

        monkeypatch.setattr(montecarlo, "_find_shift", counting)
        return calls

    @pytest.mark.parametrize("lam, beta, sigma, searched", [
        ([1.0] * 5, [1.0] * 5, (np.full((5, 5), 0.5) + 0.5 * np.eye(5)).tolist(),
         [0]),
        ([0.5, 2.0, 1.0], [1.0, 1.5, 0.7],
         [[1, 0.3, -0.2], [0.3, 1, 0.5], [-0.2, 0.5, 1]], [0, 1, 2]),
        # ModelSpec puts the odd margin first, so margins 1 and 2 share
        ([1.0, 1.0, 2.0], [1.0] * 3,
         [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]], [0, 1]),
        ([1.0] * 3, [1.0, 1.0, 1.5],
         [[1, 0.5, 0.5], [0.5, 1, 0.5], [0.5, 0.5, 1]], [0, 1]),
        ([1.0] * 3, [1.0] * 3,
         [[1, 0.3, 0.3], [0.3, 1, 0.6], [0.3, 0.6, 1]], [0, 1]),
        # margins 0 and 2 see the same Sigma_-j but different covariances
        ([1.0] * 4, [1.0] * 4,
         [[1, 0.5, 0.2, 0.3], [0.5, 1, 0.5, 0.3], [0.2, 0.5, 1, 0.3],
          [0.3, 0.3, 0.3, 1]], [0, 1, 2, 3]),
        # margins 0 and 3 see the same covariances but a different Sigma_-j
        ([1.0] * 4, [1.0] * 4,
         [[1, 0.5, 0.2, 0.5], [0.5, 1, 0.3, 0.2], [0.2, 0.3, 1, 0.5],
          [0.5, 0.2, 0.5, 1]], [0, 1, 2, 3]),
    ])
    def test_one_search_per_distinct_margin(self, monkeypatch, lam, beta,
                                            sigma, searched):
        d = len(lam)
        spec = ModelSpec(d=d, lam=lam, beta=beta, gamma=0.8,
                         sigma=CorrelationMatrix(np.array(sigma, dtype=float)),
                         radial=make_radial("ChiOfDim", d))
        calls = self._counting(monkeypatch)
        plan = _conditional_plan(spec, 20.0, True, 0.5)
        assert calls == searched
        for j in range(d):
            assert np.array_equal(plan.shift[j],
                                  _find_shift(spec, 20.0, j, *self._margin(spec, j)))
        assert len({row.tobytes() for row in plan.shift}) == len(searched)


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

    def test_estimator_lookup(self):
        assert get_estimator("crude") is crude_mc
        assert get_estimator("conditional_max") is conditional_max_mc
        for name in ("crud", "conditional", ""):
            with pytest.raises(InvalidParams, match="unknown estimator"):
                get_estimator(name)
