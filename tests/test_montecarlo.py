"""Monte Carlo estimator contracts: unbiasedness, precision, determinism."""

import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr, ndtri

from reference_tables import matches_printed
from tailsum import (CorrelationMatrix, DomainError, InvalidParams, ModelSpec,
                     WrongRadialLaw, conditional_max_mc, crude_mc, make_radial,
                     marginal_tail, mc_table, montecarlo, sample)
from tailsum.cli import load_config
from tailsum.montecarlo import (_block_layout, _chunk_shifts,
                                _conditional_plan, _direction_numbers,
                                _find_shift, _integrand_log, _kink_map,
                                _lattice_classes, _lattice_digits,
                                _lattice_ndtri, _line_search, _mirror,
                                _ndtri_tables, _newton_search, _sobol_base,
                                get_estimator, worker_count)
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


def sum_tail_exact(rho, u):
    """Exact oracle at d = 2 for the standard model (X_j = e^(Y_j), Y
    bivariate normal with correlation rho): conditioning on Y1 = y,

        P(X1 + X2 > u) = Q(log u) + int_-inf^log u phi(y)
                         Q((log(u - e^y) - rho y) / sqrt(1 - rho^2)) dy,

    one quadrature, split at 0, L/2, L - 1 and L - 1e-3 (L = log u, the
    last pieces holding the integrand's logarithmic end).  Agrees with a
    30-digit mpmath integral to a few 1e-15 relative for u from 10 to
    1e4."""
    L = math.log(u)
    sd = math.sqrt(1.0 - rho * rho)

    def integrand(y):
        z = (math.log(u - math.exp(y)) - rho * y) / sd
        return math.exp(-0.5 * y * y) / math.sqrt(2.0 * math.pi) * ndtr(-z)

    edges = [-math.inf, 0.0, L / 2, L - 1.0, L - 1e-3, L]
    return ndtr(-L) + math.fsum(
        integrate.quad(integrand, a, b, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for a, b in zip(edges, edges[1:]))


def shift_rows(rows, h, k):
    """Oracle of the digitally shifted points of ``_lattice_ndtri``:
    (rows XOR h + (k + 1/2) 2^-36) 2^-16 as float64, row by row."""
    x = np.bitwise_xor(rows, h).astype(np.float64)
    x += (k + 0.5) * 2.0 ** -36
    x *= 2.0 ** -16
    return x


def shift_word(h, k):
    """The digital shift word h 2^36 + k of ``_lattice_ndtri``."""
    return (h.astype(np.uint64) << np.uint64(36)) | k.astype(np.uint64)


def lattice_normals(digits, word, tables):
    """``_lattice_ndtri`` into new output and cell buffers."""
    return _lattice_ndtri(digits, word, tables, np.empty(digits.shape),
                          np.empty(digits.shape[1]))


# (n, seed, message) that both estimators reject with InvalidParams
BAD_RUNS = [(2.5, 1, "integer n"), (np.float64(1000.0), 1, "integer n"),
            ("1000", 1, "integer n"), (None, 1, "integer n"),
            (1000, -1, "integer seed >= 0, got -1"),
            (1000, 1.5, "integer seed >= 0, got 1.5"),
            (1000, np.int64(-2), "integer seed >= 0"),
            (1000, None, "integer seed"),
            (True, 1, "integer n"), (1000, False, "integer seed")]


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

    @pytest.mark.parametrize("n, seed, match", BAD_RUNS)
    def test_rejects_non_integral_n_and_bad_seeds(self, standard_spec, n,
                                                  seed, match):
        with pytest.raises(InvalidParams, match=match):
            crude_mc(standard_spec(0.5), 10.0, n, seed)

    def test_accepts_numpy_integers(self, standard_spec):
        est = crude_mc(standard_spec(0.5), 10.0, np.int64(1000), np.uint32(3))
        assert est == replace(crude_mc(standard_spec(0.5), 10.0, 1000, 3),
                              elapsed=est.elapsed)
        assert type(est.n) is int and type(est.seed) is int

    def test_rejects_single_draw(self, standard_spec):
        # one draw has no standard error
        with pytest.raises(InvalidParams, match="n >= 2"):
            crude_mc(standard_spec(0.5), 1e6, 1, seed=1)


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

    @pytest.mark.parametrize("n, seed, match", BAD_RUNS)
    def test_rejects_non_integral_n_and_bad_seeds(self, standard_spec, n,
                                                  seed, match):
        for spec in (standard_spec(0.5), ModelSpec.standard(1, 0.0)):
            with pytest.raises(InvalidParams, match=match):
                conditional_max_mc(spec, 10.0, n, seed)
        with pytest.raises(InvalidParams, match=match):
            mc_table(standard_spec(0.5), [10.0], n, seed)

    def test_accepts_numpy_integers(self, standard_spec):
        est = conditional_max_mc(standard_spec(0.5), 10.0, np.int64(1000),
                                 np.uint32(3))
        assert est == replace(conditional_max_mc(standard_spec(0.5), 10.0,
                                                 1000, 3), elapsed=est.elapsed)
        assert type(est.n) is int and type(est.seed) is int

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

    # (model, u, n, seed) -> (value, stderr) with the lattice inverse
    # normal, the vectorised shift search, each margin's shifted component
    # on a fixed half of every block, the halves weighted by the power
    # heuristic and each margin's conditioning vector drawn through
    # chol(Sigma_-j).  table3 (Sigma = I) at u = 1e6 has a zero shift, so
    # every mixture weight is exactly 1.  The two d = 2 stderrs at
    # n = 2^19 and 2^20 are 5.6e-9 and 6.8e-10 of their values, so a
    # change in how the sampler rounds its normals (by an ulp or two)
    # moves them by about 1e-9 relative.
    GOLDEN = [
        ("table1", 10.0, 10**5, 11,
         0.05206023025148344, 1.0800198094566403e-09),
        ("d2_rho0.5", 30.0, 50_000, 6,
         0.0016563120761452636, 3.012547241595891e-10),
        ("d2_rho0.3", 50.0, 2**19, 2,
         0.00015468570625549438, 8.681558990682346e-13),
        ("d2_rho0.9", 1000.0, 2**20, 3,
         1.1027418296158377e-10, 7.480654851044769e-20),
        ("d5_rho0.5", 1e4, 150_000, 8,
         1.5652004893035668e-19, 5.208961085632469e-23),
        ("d5_rho0.5", 1e4, 2 * 10**6, 8,
         1.5656284919421382e-19, 8.629293193505345e-24),
        ("heterogeneous3", 20.0, 100_000, 9,
         0.03709176823774949, 2.7765947475588058e-06),
        ("table3", 1e6, 100_000, 12,
         2.0549681250181145e-43, 1.984632129136729e-51),
    ]

    # the row whose blocks pass 2^16 points, so are run chunk by chunk,
    # is told from the one of the same model by its id
    @pytest.mark.parametrize("model, u, n, seed, value, stderr", GOLDEN,
                             ids=[g[0] + ("_chunked" if _block_layout(g[2])[0]
                                          > 2**16 else "") for g in GOLDEN])
    def test_seeded_estimates_match_golden_values(self, model, u, n, seed,
                                                  value, stderr):
        est = conditional_max_mc(_named_spec(model), u, n, seed)
        assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
        assert est.stderr == pytest.approx(stderr, rel=1e-9, abs=0.0)

    # P(S > u) on three d >= 3 models, with its stderr, from the
    # estimator's equal-halves mixture (before the 7/8 shifted share) at
    # n = 2^24, seed 20261019
    COVERAGE = [
        ("d3_rho0.9", 100.0, 0.00016313192905146259, 3.603933664232842e-10),
        ("heterogeneous3", 20.0, 0.03708681189155165, 5.386120795901331e-08),
        ("d5_rho0.5", 100.0, 0.0001925734319466169, 7.588326828587044e-09),
    ]

    @pytest.mark.parametrize("model, u, ref, ref_stderr", COVERAGE,
                             ids=[c[0] for c in COVERAGE])
    def test_shifted_share_covers_the_reference(self, model, u, ref,
                                                ref_stderr):
        # at d >= 3 the shifted component of a margin with a far shift
        # takes 7/8 of each block (every margin of the d = 3 and d = 5
        # models, margin 2 of the heterogeneous one): over 16 seeds at
        # n = 2^16 the estimates scatter about the reference as their
        # stderrs say, z rms in [0.5, 1.6] and no |z| above 4.5
        spec = _named_spec(model)
        z = []
        for seed in range(16):
            est = conditional_max_mc(spec, u, 1 << 16, seed)
            z.append((est.value - ref) / math.hypot(est.stderr, ref_stderr))
        rms = math.sqrt(math.fsum(v * v for v in z) / len(z))
        assert 0.5 <= rms <= 1.6, z
        assert max(map(abs, z)) <= 4.5, z

    @pytest.mark.parametrize("d, rho, u, share", [
        (3, 0.5, 4.0, 0.5), (5, 0.5, 3.0, 0.5),   # bulk thresholds
        (3, 0.0, 3.0, 0.5),                       # a zero shift
        (3, 0.2, 18.8, 0.5),                      # a second region at the origin
        (2, 0.9, 1e3, 0.5),                       # d = 2
        (3, 0.5, 100.0, 0.875), (5, 0.5, 1e4, 0.875)])
    def test_plan_gives_far_shifts_seven_eighths(self, d, rho, u, share):
        # in the first four rows 7/8 raised the stderr 1.2 to 1.8 fold
        # (8 seeds, n = 2^15 and 2^16): near shifts, or a shift far from
        # the nominal law whose log-integrand beats the origin's by under 2
        shares = _conditional_plan(ModelSpec.standard(d, rho), u).kernel_args[-1]
        assert shares.tolist() == [share] * d

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
        # at u = 2 the mode is the origin: the plan has a zero shift and
        # every draw is untilted
        spec = standard_spec(0.5)
        assert not np.any(_conditional_plan(spec, 2.0).shift)
        truth = sum_tail_dblquad(0.5, 2.0)
        est = conditional_max_mc(spec, 2.0, 10**5, seed=23)
        assert abs(est.value - truth) <= 3 * est.stderr

    def test_one_row_blocks_unbiased_over_many_seeds(self, standard_spec):
        # n = 16: sixteen one-row blocks, each shifted with probability 1/2
        # (the plan has a shift); the mean of 200 seeded estimates against
        # the quadrature oracle, within 3 standard errors of that mean
        spec = standard_spec(0.9)
        assert np.all(_conditional_plan(spec, 10.0).shift > 1.0)
        truth = sum_tail_dblquad(0.9, 10.0)
        values = []
        for seed in range(200):
            est = conditional_max_mc(spec, 10.0, 16, seed)
            assert est.n == 16
            values.append(est.value)
        sem = np.std(values, ddof=1) / math.sqrt(len(values))
        assert abs(np.mean(values) - truth) <= 3 * sem

    # table1 relative stderr at n = 2^20, seeds 1-4, when every draw picked
    # its mixture component from a Sobol coordinate of its own
    FORMER_REL_STDERR = {
        100.0: [2.909655617899537e-05, 2.515423341795919e-05,
                3.223769155591736e-05, 2.9678103597969558e-05],
        1e4: [4.892771469675528e-05, 3.714291400284961e-05,
              4.488105700908248e-05, 3.8887815160913144e-05],
    }

    @pytest.mark.parametrize("u, bound", [(100.0, 0.75), (1e4, 0.6)])
    def test_fixed_halves_beat_the_random_pick_on_table1(self, u, bound):
        # root mean square over the seeds; measured 0.72 at u = 100 and
        # 0.37 at u = 1e4
        spec = load_config("table1").build_model()
        rel = [est.stderr / est.value for est in
               (conditional_max_mc(spec, u, 2**20, seed) for seed in range(1, 5))]
        former = self.FORMER_REL_STDERR[u]
        assert (math.sqrt(np.mean(np.square(rel)))
                <= bound * math.sqrt(np.mean(np.square(former))))

    # relative stderr at n = 2^18, seeds 1-4, when every margin took its
    # conditioning vector from the rows of one draw chol(Sigma) e
    SHARED_FACTOR_REL_STDERR = {
        ("table2", 300.0): [2.9831088185269172e-05, 2.499192841131513e-05,
                            3.7843745791938605e-05, 2.9694928589709345e-05],
        ("table1", 1e4): [3.8530330880697386e-05, 6.366418309487527e-05,
                          4.019451763254189e-05, 4.270770968168055e-05],
    }

    @pytest.mark.parametrize("config, u", list(SHARED_FACTOR_REL_STDERR))
    def test_per_margin_factors_beat_the_shared_factor(self, config, u):
        # root mean square over the seeds, at most half the former one
        spec = load_config(config).build_model()
        rel = [est.stderr / est.value for est in
               (conditional_max_mc(spec, u, 2**18, seed) for seed in range(1, 5))]
        former = self.SHARED_FACTOR_REL_STDERR[config, u]
        assert (math.sqrt(np.mean(np.square(rel)))
                <= 0.5 * math.sqrt(np.mean(np.square(former))))

    @pytest.mark.parametrize("rho, u", [(0.9, 100.0), (0.9, 300.0),
                                        (0.9, 1000.0), (0.9, 1e4),
                                        (0.5, 1000.0)])
    def test_stderr_covers_the_exact_value_at_d2(self, rho, u):
        # z = (estimate - truth) / stderr over 16 seeds: the reported
        # stderr must be the estimate's error, not a fraction of it, also
        # where the nominal half reaches the mode region only through its
        # outermost lattice cells (rho = 0.9, u = 300 and 1000)
        spec = ModelSpec.standard(2, rho)
        truth = sum_tail_exact(rho, u)
        z = np.array([(est.value - truth) / est.stderr for est in
                      (conditional_max_mc(spec, u, 2**18, seed)
                       for seed in range(1, 17))])
        assert math.sqrt(np.mean(z * z)) <= 1.5
        assert np.max(np.abs(z)) <= 4.0

    @pytest.mark.parametrize("rho, n, block", [
        (0.9, 250_000, 2**14), (0.5, 250_000, 2**14),
        (0.9, 2**21, 2**17)], ids=["0.9", "0.5", "0.9-2^21"])
    def test_sixteen_large_blocks_cover_the_exact_value_at_d2(self, rho, n,
                                                              block):
        # n = 250,000 is 16 blocks of 2^14, and 2^21 16 blocks of 2^17,
        # each run as two chunks: the stderr of only 16 large blocks must
        # still be the estimate's error
        spec = ModelSpec.standard(2, rho)
        truth = sum_tail_exact(rho, 1000.0)
        assert _block_layout(n) == (block, 16)
        z = np.array([(est.value - truth) / est.stderr for est in
                      (conditional_max_mc(spec, 1000.0, n, seed)
                       for seed in range(1, 17))])
        assert math.sqrt(np.mean(z * z)) <= 1.5
        assert np.max(np.abs(z)) <= 4.0

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

    def test_worker_count_independence_in_blocks_of_several_chunks(self):
        # n = 2e6 is 16 blocks of 2^17, 32 chunks run in any order
        spec = ModelSpec.standard(3, 0.5)
        ests = [conditional_max_mc(spec, 100.0, 2 * 10**6, seed=42, workers=w)
                for w in (1, 2, 8)]
        assert {e.n for e in ests} == {2_097_152}
        assert len({(e.value, e.stderr) for e in ests}) == 1

    def test_blocks_of_several_chunks_take_no_more_memory(self):
        # numpy reports its array data to tracemalloc: after a warm-up
        # the estimate's peak at n = 2^22 (16 blocks of 2^18, 64 chunks)
        # is within 10% of its peak at 2^20 (16 blocks of one chunk)
        spec = ModelSpec.standard(5, 0.5)
        peaks = {}
        for n in (2**20, 2**22):
            conditional_max_mc(spec, 100.0, n, seed=1)
            tracemalloc.start()
            try:
                conditional_max_mc(spec, 100.0, n, seed=2)
                peaks[n] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[2**22] <= 1.1 * peaks[2**20], peaks

    def test_crude_worker_count_independence(self, standard_spec):
        spec = standard_spec(0.5)
        ests = [crude_mc(spec, 10.0, 3 * 10**5, seed=42, workers=w)
                for w in (1, 2, 8)]
        assert len({e.value for e in ests}) == 1

    @pytest.mark.parametrize("workers", [0, -3, "two", 2.7, 1.9, 2.0])
    def test_bad_worker_count_rejected(self, standard_spec, workers):
        spec = standard_spec(0.5)
        match = f"workers must be a positive integer, got {workers!r}"
        with pytest.raises(InvalidParams, match=match):
            worker_count(workers)
        with pytest.raises(InvalidParams, match=match):
            crude_mc(spec, 10.0, 1000, seed=1, workers=workers)
        with pytest.raises(InvalidParams, match=match):
            conditional_max_mc(spec, 10.0, 1000, seed=1, workers=workers)
        with pytest.raises(InvalidParams, match=match):
            conditional_max_mc(ModelSpec.standard(1, 0.0), 10.0, 1000, seed=1,
                               workers=workers)

    @pytest.mark.parametrize("env", ["0", "-2", "two", "1.5", "2.5"])
    def test_bad_env_thread_count_rejected(self, standard_spec, monkeypatch, env):
        monkeypatch.setenv("TAILSUM_THREADS", env)
        match = f"TAILSUM_THREADS must be a positive integer, got {env!r}"
        with pytest.raises(InvalidParams, match=match):
            worker_count()
        with pytest.raises(InvalidParams, match=match):
            conditional_max_mc(standard_spec(0.5), 10.0, 1000, seed=1)
        assert worker_count(3) == 3  # an explicit count wins

    def test_env_thread_override(self, standard_spec, monkeypatch):
        spec = standard_spec(0.5)
        base = conditional_max_mc(spec, 30.0, 10**5, seed=43)
        monkeypatch.setenv("TAILSUM_THREADS", "4")
        env = conditional_max_mc(spec, 30.0, 10**5, seed=43)
        assert env.value == base.value

    def test_env_thread_count_is_an_integer_literal(self, monkeypatch):
        monkeypatch.setenv("TAILSUM_THREADS", "2")
        assert worker_count() == 2
        assert worker_count(np.int64(3)) == 3


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

    def test_gaussian_copula_paths_load_no_optimize_integrate_or_stats(self):
        code = "\n".join([
            "import sys, tailsum",
            "from tailsum.cli import load_config",
            "config = load_config('table1')",
            "spec = config.build_model()",
            "options = tailsum.McOptions(estimator='conditional_max', n=4096,"
            " seed=1)",
            "tailsum.build_table(spec, config.u_list, options)",
            "tailsum.conditional_max_mc(tailsum.ModelSpec.standard(5, 0.5), 100.0,"
            " 4096, seed=1)",
            "tailsum.crude_mc(tailsum.ModelSpec.standard(2, 0.5), 10.0, 4096,"
            " seed=1)",
            "tailsum.approximate(spec, 100.0)",
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate',"
            " 'scipy.stats') if m in sys.modules))",
        ])
        src = Path(__file__).resolve().parent.parent / "src"
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env=dict(os.environ, PYTHONPATH=str(src)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    @pytest.mark.parametrize("n, rounded", [(1, 16), (1000, 1024),
                                            (150_000, 155_648),
                                            (250_000, 262_144),
                                            (10**6, 1_048_576),
                                            (2 * 10**6, 2_097_152),
                                            (10**7, 10_485_760)])
    def test_n_rounds_up_to_whole_blocks(self, standard_spec, n, rounded):
        # the largest block that leaves at least 16 blocks: 1e6 is 16
        # blocks of 2^16, 2e6 16 of 2^17 and 1e7 20 of 2^19
        block, blocks = _block_layout(n)
        assert block & (block - 1) == 0
        assert blocks >= 16
        assert -(-n // (2 * block)) < 16
        assert blocks == 16 or blocks * block - n < block < n / 15
        est = conditional_max_mc(standard_spec(0.5), 10.0, n, seed=3)
        assert est.n == blocks * block == rounded

    def test_shifted_points_stay_inside_the_unit_interval(self):
        base = _sobol_base(4)
        top = shift_rows(base, np.full((4, 1), 0xFFFF, dtype=np.uint16),
                          np.full((4, 1), 2**36 - 1))
        bottom = shift_rows(base, np.zeros((4, 1), dtype=np.uint16),
                             np.zeros((4, 1), dtype=np.int64))
        for x in (top, bottom):
            assert 0.0 < x.min() and x.max() < 1.0
            assert np.all(np.isfinite(ndtri(x)))


def _named_spec(model: str) -> ModelSpec:
    """The model of a golden or coverage case: a shipped config, the
    heterogeneous d=3 model, or the standard model "d<d>_rho<rho>"."""
    if model in ("table1", "table3"):
        return load_config(model).build_model()
    if model == "heterogeneous3":
        return _heterogeneous3()
    d, rho = model.split("_rho")
    return ModelSpec.standard(int(d[1:]), float(rho))


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

    @pytest.mark.parametrize("bits", range(17))
    def test_matches_ndtri_on_every_cell(self, bits):
        rows = _sobol_base(4)[:, :1 << bits]
        digits = _lattice_digits(4)[:, :1 << bits]
        tables = _ndtri_tables(_lattice_classes(1 << bits))
        tail = tables[-1]
        rng = np.random.default_rng(bits)
        shifts = [(np.full((4, 1), h, dtype=np.uint16), np.full((4, 1), k))
                  for h in (0, 0xFFFF) for k in (0, 2**36 - 1)]
        shifts += [(rng.integers(0, 2**16, size=(4, 1), dtype=np.uint16),
                    rng.integers(0, 2**36, size=(4, 1))) for _ in range(8)]
        for h, k in shifts:
            got = lattice_normals(digits, shift_word(h, k), tables)
            expected = ndtri(shift_rows(rows, h, k))
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - expected)) <= 1e-14
            cell = np.bitwise_xor(rows, h)
            in_tail = (cell < tail) | (cell >= 65536 - tail)
            assert np.array_equal(got[in_tail], expected[in_tail])

    @pytest.mark.parametrize("d", [2, 5])
    @pytest.mark.parametrize("bits", [17, 18])
    def test_chunks_of_a_large_block_are_its_shifted_net(self, bits, d):
        # chunk by chunk, the normals of a block of 2^bits points are
        # ndtri of scipy's unscrambled Sobol points under the block's
        # digital shift, point by point in Sobol order
        from scipy.stats import qmc

        chunks = 1 << (bits - 16)
        points = qmc.Sobol(d, scramble=False).random_base2(bits).T
        digits = (points * 2.0 ** 30).astype(np.uint64) << np.uint64(22)
        base = _lattice_digits(d)
        tables = _ndtri_tables(_lattice_classes(1 << 16))
        shifts = _chunk_shifts(d, chunks)
        rng = np.random.default_rng(bits + d)
        for h, k in [(np.zeros((d, 1), dtype=np.uint16),
                      np.zeros((d, 1), dtype=np.int64)),
                     (rng.integers(0, 2**16, size=(d, 1), dtype=np.uint16),
                      rng.integers(0, 2**36, size=(d, 1)))]:
            shift = shift_word(h, k)
            got = np.hstack([lattice_normals(base, shift ^ shifts[c], tables)
                             for c in range(chunks)])
            x = np.bitwise_xor(digits, shift)
            expected = ndtri(shift_rows(x >> np.uint64(36), 0,
                                        x & np.uint64(2**36 - 1)))
            assert np.max(np.abs(got - expected)) <= 1e-14

    @pytest.mark.parametrize("bits", range(17))
    def test_mirror_index_maps_a_block_onto_its_cells(self, bits):
        # (_mirror(D) XOR _mirror(h)) >> (16 - b) takes the 2^b points of a
        # block one to one onto the 2^b positions of their cells: first the
        # cells j = i 2^(16-b) + r of the lower half in order, then the
        # mirror cells 2^16 - 1 - j of the upper half in order
        m, s = 1 << bits, 16 - bits
        step = 1 << s
        rows = _sobol_base(3)[:, :m].astype(np.int64)
        digits = _lattice_digits(3)[:, :m].astype(np.int64)
        for h in (0, 1, 0x7FFF, 0x8000, 0x8001, 0xFFFF, 12345, 54321):
            r = h % step
            mid = -(-(2**15 - r) // step)
            cell = np.bitwise_xor(rows, h)
            idx = np.bitwise_xor(digits, _mirror(h)) >> s
            lower = (idx << s) + r
            upper = 2**16 - 1 - (((idx - mid) << s) + step - 1 - r)
            for row_idx in idx:
                assert np.array_equal(np.sort(row_idx), np.arange(m))
            assert np.array_equal(cell, np.where(idx < mid, lower, upper))

    def test_direction_numbers_read_only_their_rows(self):
        # the 21,201 x 18 int64 vinit table is 3 MB; reading the 5 rows
        # of d = 5 must not load it (numpy and zipfile report their
        # buffers to tracemalloc)
        tracemalloc.start()
        try:
            v = _direction_numbers.__wrapped__(5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 256 * 1024, peak
        assert np.array_equal(v, _direction_numbers(5))

    def test_tables_take_one_mib_and_are_built_once(self):
        tables = _ndtri_tables(2)
        wide, narrow, tail = tables
        assert wide.nbytes + narrow.nbytes <= 2**20
        assert _ndtri_tables(2) is tables
        assert 0.01 < 2 * tail / 65536 < 0.03


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

    # (lam, beta, sigma, margins searched), each at gamma = 0.8 and u = 20
    MODELS = [
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
    ]
    # Log-integrand of each margin of MODELS at the shift of the former
    # search (a line scan polished by scipy's Nelder-Mead).
    NELDER_MEAD = [
        [-3.5191912787169883] * 5,
        [-3.0911527200380897, -9.011651754410572, -10.983662545379532],
        [-4.274072074242769, -5.181650432599319, -5.181650432599319],
        [-4.030671486650716, -5.181953912581561, -5.181953912581561],
        [-6.364971714740267, -5.966874623838979, -5.966874623838979],
        [-5.347755832643883, -4.987856291798367, -5.347755832643883,
         -5.407147527660169],
        [-4.964925580295203, -5.172629290714341, -5.172629290714343,
         -4.964925580295203],
    ]
    # The same for table1 (margin 0; both margins agree) and for the
    # equicorrelated d = 5 model of cond_d5, per threshold.
    NELDER_MEAD_TABLE1 = {
        10.0: -2.3280315259557662, 30.0: -4.986483805166676,
        50.0: -6.649747096681496, 75.0: -8.163207034319488,
        100.0: -9.340813752240468, 200.0: -12.532267471639333,
        300.0: -14.631306652290577, 500.0: -17.519895197043205,
        700.0: -19.57131843121988, 1000.0: -21.874973465189534,
        1500.0: -24.655126765885214, 2000.0: -26.731846789916553,
        2500.0: -28.40224011541902, 3000.0: -29.805688345685567,
        5000.0: -33.92295680340636, 7000.0: -36.78401836954511,
        10000.0: -39.94619145111191, 100000.0: -63.56542559660735,
        1000000.0: -92.74038333083855,
    }
    NELDER_MEAD_D5 = {100.0: -8.695620618785519, 1e4: -44.88790432458582}

    @staticmethod
    def _spec(lam, beta, sigma):
        d = len(lam)
        return ModelSpec(d=d, lam=lam, beta=beta, gamma=0.8,
                         sigma=CorrelationMatrix(np.array(sigma, dtype=float)),
                         radial=make_radial("ChiOfDim", d))

    @classmethod
    def _value_at(cls, spec, u, j, shift):
        return _integrand_log(spec, u, j, *cls._margin(spec, j))(shift[None, :])[0]

    @pytest.mark.parametrize("lam, beta, sigma, searched", MODELS)
    def test_one_search_per_distinct_margin(self, monkeypatch, lam, beta,
                                            sigma, searched):
        spec = self._spec(lam, beta, sigma)
        calls = self._counting(monkeypatch)
        plan = _conditional_plan(spec, 20.0)
        assert calls == searched
        own = [_find_shift(spec, 20.0, j, *self._margin(spec, j))[0]
               for j in range(spec.d)]
        for j in range(spec.d):
            assert np.array_equal(plan.shift[j], own[j])
        # the plan holds exactly the searched margins' results (two
        # searches may land on the same point, such as a kink where every
        # piece of the threshold is equal)
        assert ({row.tobytes() for row in plan.shift}
                == {own[j].tobytes() for j in searched})

    @pytest.mark.parametrize("lam, beta, sigma, searched, former",
                             [(*m, nm) for m, nm in zip(MODELS, NELDER_MEAD)],
                             ids=[f"model{i}" for i in range(len(MODELS))])
    def test_search_reaches_the_former_optimum(self, lam, beta, sigma,
                                               searched, former):
        spec = self._spec(lam, beta, sigma)
        plan = _conditional_plan(spec, 20.0)
        for j in range(spec.d):
            assert self._value_at(spec, 20.0, j, plan.shift[j]) >= former[j] - 1e-8

    # Heterogeneous models from a random sweep (inputs rounded), with the
    # former search's log-integrand per margin.  On d4_u3176 and d4_u325300
    # a Newton step stops within about 1e-5 of a kink; on d4_u4738 the
    # start along the regression direction decides which local mode is
    # reached; on d4_u474.9 only a start along a coordinate axis reaches
    # margin 2's highest mode.  (lam, beta, gamma, u, sigma, former)
    SWEEP_MODELS = {
        "d4_u3176": ([1.0] * 4, [1.196, 1.273, 0.684, 1.578], 1.119, 3176.0,
                     [[1.0, 0.007, 0.294, -0.114], [0.007, 1.0, -0.599, 0.085],
                      [0.294, -0.599, 1.0, -0.645], [-0.114, 0.085, -0.645, 1.0]],
                     [-12.486807506205249, -18.29373033347795,
                      -20.775795607649844, -52.67307691063089]),
        "d4_u325300": ([0.6, 2.525, 0.991, 1.337], [0.575, 1.614, 1.345, 1.242],
                       0.819, 325300.0,
                       [[1.0, 0.108, -0.409, -0.05], [0.108, 1.0, 0.199, 0.748],
                        [-0.409, 0.199, 1.0, -0.127], [-0.05, 0.748, -0.127, 1.0]],
                       [-42.05678708224602, -69.5143036721078,
                        -69.0918204432635, -397.0228621434231]),
        "d4_u4738": ([1.0] * 4, [1.0] * 4, 0.808, 4738.0,
                     [[1.0, 0.242, 0.018, 0.332], [0.242, 1.0, 0.706, 0.313],
                      [0.018, 0.706, 1.0, -0.042], [0.332, 0.313, -0.042, 1.0]],
                     [-57.982919418773335, -56.13464158663879,
                      -56.23276385061163, -57.88757296126463]),
        "d4_u474.9": ([2.052, 1.927, 0.984, 2.56], [1.195, 1.192, 0.746, 1.09],
                      0.761, 474.9,
                      [[1.0, 0.659, -0.172, 0.4], [0.659, 1.0, 0.184, 0.29],
                       [-0.172, 0.184, 1.0, -0.451], [0.4, 0.29, -0.451, 1.0]],
                      [-18.23639191197353, -18.28782830949116,
                       -21.73855554515432, -55.83454571094191]),
    }

    @pytest.mark.parametrize("name", list(SWEEP_MODELS))
    def test_search_reaches_the_former_optimum_on_sweep_models(self, name):
        lam, beta, gamma, u, sigma, former = self.SWEEP_MODELS[name]
        spec = ModelSpec(d=len(lam), lam=lam, beta=beta, gamma=gamma,
                         sigma=CorrelationMatrix(np.array(sigma)),
                         radial=make_radial("ChiOfDim", len(lam)))
        plan = _conditional_plan(spec, u)
        for j in range(spec.d):
            assert self._value_at(spec, u, j, plan.shift[j]) >= former[j] - 1e-8

    @pytest.mark.parametrize("name, j, bound", [("d4_u325300", 3, -372.5),
                                                ("d4_u474.9", 2, -21.33)])
    def test_search_reaches_the_higher_mode(self, name, j, bound):
        # the former search climbed only from the better of the all-ones
        # and regression starts and stopped at -397.02 and -21.74; on the
        # first model the other of those starts climbs higher, on the
        # second only a start along a coordinate axis does
        lam, beta, gamma, u, sigma, _ = self.SWEEP_MODELS[name]
        spec = ModelSpec(d=4, lam=lam, beta=beta, gamma=gamma,
                         sigma=CorrelationMatrix(np.array(sigma)),
                         radial=make_radial("ChiOfDim", 4))
        plan = _conditional_plan(spec, u)
        assert self._value_at(spec, u, j, plan.shift[j]) >= bound

    @pytest.mark.parametrize("model", ["table1", "d5"])
    def test_exchangeable_models_climb_nowhere(self, monkeypatch, model):
        # the workloads' models: the all-ones line search is the whole
        # search, with no climb from any start
        climbs = []
        monkeypatch.setattr(montecarlo, "_climb",
                            lambda *args: climbs.append(args) or args[-2:])
        if model == "table1":
            spec, us = load_config("table1").build_model(), [10.0, 1e4, 1e6]
        else:
            spec, us = ModelSpec.standard(5, 0.5), [100.0, 1e4]
        for u in us:
            _conditional_plan(spec, u)
        assert climbs == []

    @pytest.mark.parametrize("u, shifted", [(2.0 * (1.0 + 1e-11), False),
                                            (2.0 * (1.0 + 1e-8), True)])
    def test_no_shift_unless_the_mode_beats_the_origin_by_1e_9(self, u, shifted):
        # d = 2, rho = 0: the mode is the kink at log(u / 2), next to the
        # origin; the log-integrand gains about 1e-11 and 1e-8 there
        plan = _conditional_plan(ModelSpec.standard(2, 0.0), u)
        assert bool(np.any(plan.shift != 0.0)) == shifted
        assert bool(np.any(plan.tilt_vec != 0.0)) == shifted
        assert bool(np.any(plan.tilt_const != 0.0)) == shifted

    def test_table1_shifts_sit_on_the_kink(self):
        # d = 2: the mode is where the other margin is half of u
        # (x = u - x), the kink of the threshold max(x, u - x)
        config = load_config("table1")
        spec = config.build_model()
        assert list(config.u_list) == list(self.NELDER_MEAD_TABLE1)
        for u in config.u_list:
            plan = _conditional_plan(spec, u)
            for j in range(2):
                o = 1 - j
                kink = math.log(u / (2.0 * spec.lam[o])) / (spec.beta[o] * spec.gamma)
                assert plan.shift[j][0] == pytest.approx(kink, rel=0.0, abs=1e-9)
                assert (self._value_at(spec, u, j, plan.shift[j])
                        >= self.NELDER_MEAD_TABLE1[u])

    @pytest.mark.parametrize("u", [100.0, 1e4])
    def test_equicorrelated_shift_is_on_the_ones_line(self, monkeypatch, u):
        spec = ModelSpec.standard(5, 0.5)
        calls = self._counting(monkeypatch)
        plan = _conditional_plan(spec, u)
        assert calls == [0]
        assert np.all(plan.shift == plan.shift[0, 0])
        assert self._value_at(spec, u, 0, plan.shift[0]) >= self.NELDER_MEAD_D5[u]

    def test_line_search_closes_on_a_kink_and_walks_out_of_its_bracket(self):
        def kink(c):
            return lambda y: -np.abs(y[:, 0] - c) - 0.1 * y[:, 1] ** 2

        start = np.array([0.0, 1.0])
        v = np.array([1.0, 0.0])
        for c in (0.3, -0.7, 5.7, -40.0):  # inside, inside, outside, far out
            h = kink(c)
            y, best = _line_search(h, start, v, h(start[None, :])[0], -1.0, 1.0)
            assert y[0] == pytest.approx(c, rel=0.0, abs=1e-10)
            assert y[1] == 1.0 and best == h(y[None, :])[0]
        # nothing better than the start: the start comes back unchanged
        h = kink(0.0)
        y, best = _line_search(h, np.zeros(2), v, 0.0, -1.0, 1.0)
        assert np.array_equal(y, np.zeros(2)) and best == 0.0

    def test_newton_search_climbs_a_concave_quadratic(self):
        a = np.array([[2.0, 0.6, -0.3], [0.6, 1.0, 0.2], [-0.3, 0.2, 0.5]])
        top = np.array([1.5, -2.0, 0.7])

        def h(q):
            dq = q - top
            return -0.5 * np.einsum("ij,jk,ik->i", dq, a, dq)

        q, best = _newton_search(h, np.zeros(3), h(np.zeros((1, 3)))[0])
        np.testing.assert_allclose(q, top, rtol=0.0, atol=1e-6)
        assert -1e-12 <= best <= 0.0

    @pytest.mark.parametrize("on_max, on_rest", [
        ([True, True, False], True), ([True, False, False], True),
        ([True, False, True], False), ([True, True, True], False)])
    def test_kink_map_levels_the_flagged_pieces(self, on_max, on_rest):
        u = 20.0
        lam, bg = np.array([0.5, 2.0, 1.0]), np.array([1.2, 0.8, 0.56])
        on_max = np.array(on_max)
        embed = _kink_map(u, lam, bg, on_max, on_rest)
        dim = int(np.count_nonzero(~on_max)) + (0 if on_rest else 1)
        q = np.random.default_rng(5).uniform(-1.0, 1.0, size=(20, dim))
        y = embed(q)
        log_x = np.log(lam) + bg * y
        level = log_x[:, on_max]
        np.testing.assert_allclose(level, level[:, :1].repeat(level.shape[1], 1),
                                   rtol=0.0, atol=1e-12)
        if on_rest:
            rest = u - np.exp(log_x).sum(axis=1)
            np.testing.assert_allclose(np.log(rest), level[:, 0], rtol=0.0,
                                       atol=1e-12)
        else:
            np.testing.assert_allclose(level[:, 0], q[:, 0], rtol=0.0, atol=1e-12)
        np.testing.assert_array_equal(y[:, ~on_max], q[:, dim - (~on_max).sum():])


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

    def test_seeds_above_64_bits_are_kept(self, standard_spec):
        spec = standard_spec(0.5)
        row = mc_table(spec, [10.0], 1000, seed=2**64 + 5)[0]
        assert row.seed == 2**64 + 5
        assert row.value == conditional_max_mc(spec, 10.0, 1000, 2**64 + 5).value
        assert row.value != conditional_max_mc(spec, 10.0, 1000, 5).value

    def test_empty_list_rejected(self, standard_spec):
        with pytest.raises(InvalidParams, match="^u_list must not be empty$"):
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
