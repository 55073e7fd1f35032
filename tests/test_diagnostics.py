"""Validity measures and table assembly."""

import math

import pytest

from reference_tables import TABLES, matches_printed, printed_quantum
from tailsum import (DomainError, InvalidParams, McOptions, build_table,
                     epsilon_measure, rho_hat)
from tailsum.asymptotics import VARIANT_DENSITY


class TestRhoHat:
    @pytest.mark.parametrize("u,printed", [(10, "0.638"), (50, "0.651"),
                                           (1e6, "0.81"), (2, "1.53"),
                                           (3, "0.914")])
    def test_printed_values(self, standard_spec, u, printed):
        assert matches_printed(rho_hat(standard_spec(0.9), 0, u), printed)

    def test_closed_form_for_standard_margins(self, standard_spec):
        for u in [5.0, 100.0, 1e4]:
            expected = 1.0 - math.log(math.log(u)) / math.log(u)
            assert rho_hat(standard_spec(0.0), 0, u) == pytest.approx(expected, rel=1e-13)

    def test_independent_of_correlation(self, standard_spec):
        vals = {rho: rho_hat(standard_spec(rho), 0, 50.0)
                for rho in [-0.9, 0.0, 0.5, 0.9]}
        assert len(set(vals.values())) == 1

    def test_increasing_beyond_the_minimum(self, standard_spec):
        # 1 - log(log u)/log u has its minimum at u = e^e ~ 15.2 (the
        # reference tables themselves dip from 0.638 at u=10 to 0.632 at
        # u=15); strictly increasing only beyond that point
        spec = standard_spec(0.0)
        us = [16.0, 20.0, 50.0, 1e3, 1e6, 1e9]
        vals = [rho_hat(spec, 0, u) for u in us]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert rho_hat(spec, 0, 15.0) < rho_hat(spec, 0, 10.0)

    def test_in_unit_interval_above_e(self, standard_spec):
        spec = standard_spec(0.0)
        for u in [2.72, 3.0, 10.0, 1e8]:
            assert 0.0 < rho_hat(spec, 0, u) < 1.0

    def test_domain(self, standard_spec):
        with pytest.raises(DomainError):
            rho_hat(standard_spec(0.0), 0, 1.0)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, standard_spec, u):
        with pytest.raises(DomainError, match="threshold u must be finite"):
            rho_hat(standard_spec(0.0), 0, u)


class TestEpsilonMeasure:
    def test_slack_inversion_reproduces_printed_epsilon(self, standard_spec):
        # the published table shows eps = 2 at (rho=0.9, u=10); inverting
        # the defining display there gives slack c = 0.153184
        em = epsilon_measure(standard_spec(0.9), 1, 0, 10.0, c=0.153184)
        assert em.epsilon == pytest.approx(2.0, rel=1e-4)

    def test_zero_slack_closed_form(self, standard_spec):
        spec = standard_spec(0.5)
        u = 40.0
        em = epsilon_measure(spec, 1, 0, u, c=0.0)
        estar = u / math.log(u)
        assert em.epsilon == pytest.approx(u**0.5 / estar, rel=1e-12)

    def test_monotone_in_slack(self, standard_spec):
        spec = standard_spec(0.5)
        vals = [epsilon_measure(spec, 1, 0, 10.0, c=c).epsilon
                for c in [0.0, 0.5, 1.0, 2.0]]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_exp_epsilon_consistent(self, standard_spec):
        em = epsilon_measure(standard_spec(0.9), 1, 0, 10.0, c=1.0)
        assert em.exp_epsilon == pytest.approx(math.exp(em.epsilon), rel=1e-12)

    def test_domain(self, standard_spec):
        with pytest.raises(DomainError):
            epsilon_measure(standard_spec(0.9), 1, 0, 0.5)

    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf])
    def test_non_finite_threshold_rejected(self, standard_spec, u):
        with pytest.raises(DomainError, match="threshold u must be finite"):
            epsilon_measure(standard_spec(0.9), 1, 0, u)


class TestBuildTable:
    def test_single_row(self, standard_spec):
        rows = build_table(standard_spec(0.0), [10.0])
        assert len(rows) == 1
        assert rows[0].mc is None
        assert rows[0].ratio1 is None

    def test_asymptotic_columns_match_reference(self, standard_spec):
        ref = TABLES[0.9]
        rows = build_table(standard_spec(0.9), [r.u for r in ref])
        for row, expect in zip(rows, ref):
            assert matches_printed(row.asympt1, expect.asympt1)
            assert matches_printed(row.asympt2, expect.asympt2)
            assert matches_printed(row.rho_hat, expect.rho_hat)

    def test_negative_rho_columns_collapse(self, standard_spec):
        rows = build_table(standard_spec(-0.9), [100.0])
        assert matches_printed(rows[0].asympt1, "4.12e-06")
        assert matches_printed(rows[0].asympt2, "4.12e-06")

    def test_mc_column_and_ratios(self, standard_spec):
        opts = McOptions(n=50_000, seed=314)
        rows = build_table(standard_spec(0.0), [10.0, 30.0], opts)
        for row in rows:
            assert row.mc is not None
            assert row.ratio1 == pytest.approx(row.mc / row.asympt1, rel=1e-12)
            assert row.ratio2 == pytest.approx(row.mc / row.asympt2, rel=1e-12)

    def test_variant_forwarded(self, standard_spec):
        dens = build_table(standard_spec(0.9), [10.0], variant=VARIANT_DENSITY)
        from tailsum.asymptotics import VARIANT_LIMIT

        lim = build_table(standard_spec(0.9), [10.0], variant=VARIANT_LIMIT)
        assert dens[0].asympt2 != lim[0].asympt2

    def test_second_order_closer_to_reference_mc(self, standard_spec):
        # on rows where the printed resolution can see the difference
        # between the two approximations, the second order must win
        for rho, ref in TABLES.items():
            spec = standard_spec(rho)
            rows = build_table(spec, [r.u for r in ref])
            for row, expect in zip(rows, ref):
                if row.u < 10.0:
                    continue
                mc = float(expect.mc)
                if row.asympt2 - row.asympt1 <= printed_quantum(expect.mc):
                    continue
                assert abs(row.asympt2 - mc) < abs(row.asympt1 - mc), \
                    f"rho={rho}, u={row.u}"

    def test_empty_u_list_rejected(self, standard_spec):
        with pytest.raises(DomainError):
            build_table(standard_spec(0.0), [])

    def test_unknown_estimator_rejected(self, standard_spec):
        with pytest.raises(InvalidParams, match="unknown estimator 'crud'"):
            build_table(standard_spec(0.5), [10.0],
                        McOptions(estimator="crud", n=1000))
