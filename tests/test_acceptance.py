"""Acceptance suite: every release criterion at its stated tolerance.

Each test prints one PASS line; a failed assertion is the FAIL line.
Reference values live in reference_tables.py and are compared at the
printed precision (a computed value must round to the printed string).
For Monte Carlo agreement the 3-standard-error band is widened by half
the printed quantum: the reference MC column carries only three
significant digits, which is coarser than this estimator's standard
error at n = 1e6.
"""

import math
import time

import pytest

from reference_tables import (TABLE_1, TABLES, matches_printed,
                              printed_quantum)
from tailsum import (ModelSpec, approximate, angular_reduction_check,
                     conditional_max_mc, crude_mc, make_radial,
                     probe_margin_mda_limit, rho_hat)
from tailsum.cli import main
from tailsum.model import marginal_log_tail
from test_asymptotics import (equicorrelated_library_correction,
                              equicorrelated_oracle)
from test_montecarlo import sum_tail_dblquad

SPECS = {rho: ModelSpec.standard(2, rho) for rho in (0.9, 0.5, 0.0, -0.9)}

# (rho, u) -> printed MC, for the moderate-tail agreement criterion
MODERATE_POINTS = [(0.9, 10.0, "0.0522"), (0.9, 100.0, "3.36e-05"),
                   (0.5, 50.0, "0.000226"), (0.0, 10.0, "0.0337"),
                   (0.0, 100.0, "4.5e-06"), (-0.9, 10.0, "0.0221")]

_mc_cache = {}


def moderate_estimate(rho, u):
    if (rho, u) not in _mc_cache:
        _mc_cache[(rho, u)] = conditional_max_mc(SPECS[rho], u, 10**6,
                                                 seed=20_260_808)
    return _mc_cache[(rho, u)]


def test_criterion_01_table_reproduction_asymptotics():
    start = time.perf_counter()
    checked = 0
    for rho, rows in TABLES.items():
        spec = SPECS[rho]
        for row in rows:
            apx = approximate(spec, row.u)
            assert matches_printed(apx.first_order, row.asympt1), \
                f"asympt1 at rho={rho}, u={row.u}"
            assert matches_printed(apx.second_order, row.asympt2), \
                f"asympt2 at rho={rho}, u={row.u}"
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"runtime {elapsed:.2f}s exceeds 1s"
    print(f"\nACCEPTANCE 1 table asymptotics: PASS "
          f"({checked} rows, {elapsed:.2f}s)")


def test_criterion_02_rho_hat_column():
    checked = 0
    for rho, rows in TABLES.items():
        spec = SPECS[rho]
        for row in rows:
            value = rho_hat(spec, 0, row.u)
            closed = 1.0 - math.log(math.log(row.u)) / math.log(row.u)
            assert value == pytest.approx(closed, rel=1e-12)
            assert matches_printed(value, row.rho_hat), \
                f"rho_hat at u={row.u}: {value} vs {row.rho_hat}"
            checked += 1
    print(f"\nACCEPTANCE 2 rho_hat column: PASS ({checked} rows)")


def test_criterion_03_mc_agreement_moderate_tails():
    # The printed MC column is itself a Monte Carlo result rounded to
    # three digits; by the double-quadrature oracle it sits up to ~0.3%
    # off the true probability (0.0522 printed vs 0.052060 true at
    # rho=0.9, u=10), which exceeds 3 of this estimator's standard
    # errors at n=1e6.  The 3-stderr clause is therefore applied against
    # the exact value, and against the printed value after removing the
    # reference's own measured offset and print quantum.
    for rho, u, printed in MODERATE_POINTS:
        start = time.perf_counter()
        est = moderate_estimate(rho, u)
        elapsed = time.perf_counter() - start
        ref = float(printed)
        truth = sum_tail_dblquad(rho, u)
        assert est.stderr / est.value < 0.01, \
            f"rel stderr {est.stderr / est.value:.2%} at ({rho}, {u})"
        assert abs(est.value - truth) <= 3 * est.stderr, \
            f"({rho}, {u}): {est.value} vs exact {truth} (3 stderr)"
        band = 3 * est.stderr + 0.5 * printed_quantum(printed) + abs(truth - ref)
        assert abs(est.value - ref) <= band, \
            f"({rho}, {u}): {est.value} vs printed {printed} (band {band:.2e})"
        assert abs(est.value - ref) / ref < 0.05, \
            f"({rho}, {u}): {est.value} off printed {printed} by >5%"
        assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 MC moderate tails: PASS "
          f"({len(MODERATE_POINTS)} points, n=1e6 each, "
          f"3-stderr agreement with the exact tail)")


def test_criterion_04_mc_deep_tail_and_ratio_growth():
    est = conditional_max_mc(SPECS[0.9], 1000.0, 10**7, seed=20_260_808)
    assert abs(est.value - 1.1e-10) <= 0.2 * 1.1e-10, \
        f"deep tail estimate {est.value} not within 20% of 1.1e-10"
    _mc_cache[(0.9, 1000.0)] = est
    ratios = [float(row.mc) / approximate(SPECS[0.9], row.u).second_order
              for row in TABLE_1]
    assert all(a < b for a, b in zip(ratios, ratios[1:])), \
        "reference MC / second order must increase in u"
    print(f"\nACCEPTANCE 4 MC deep tail: PASS "
          f"(estimate {est.value:.3e}, ratio2 {ratios[0]:.2f} -> {ratios[-1]:.1f})")


def test_criterion_05_second_order_dominance():
    points = [(rho, u) for rho, u, _ in MODERATE_POINTS] + [(0.9, 1000.0)]
    for rho, u in points:
        if u < 10.0:
            continue
        est = _mc_cache.get((rho, u)) or moderate_estimate(rho, u)
        apx = approximate(SPECS[rho], u)
        assert abs(apx.second_order - est.value) < abs(apx.first_order - est.value), \
            f"second order does not dominate at ({rho}, {u})"
    print(f"\nACCEPTANCE 5 second-order dominance: PASS ({len(points)} points)")


def test_criterion_06_closed_form_identity():
    checked = 0
    # approximate on the 48 positive-definite combinations, the pair
    # formula on the raw matrix at rho = -0.9 with d >= 3
    for d in range(2, 7):
        for rho in (-0.9, 0.0, 0.5, 0.9):
            for u in (10.0, 1e3, 1e6):
                a = equicorrelated_oracle(d, rho, u)
                b = equicorrelated_library_correction(d, rho, u)
                assert abs(a - b) <= 1e-12 * abs(b), \
                    f"identity fails at d={d}, rho={rho}, u={u}"
                checked += 1
    print(f"\nACCEPTANCE 6 closed-form identity: PASS ({checked} combos, rel 1e-12)")


def test_criterion_07_small_instance_oracle_equivalence():
    spec, u = SPECS[0.0], 5.0
    quad = sum_tail_dblquad(0.0, u)
    cond = conditional_max_mc(spec, u, 10**6, seed=20_260_808)
    crude = crude_mc(spec, u, 10**8, seed=20_260_808, workers=4)
    assert abs(cond.value - quad) <= 3 * cond.stderr
    assert abs(crude.value - quad) <= 3 * crude.stderr
    assert abs(cond.value - crude.value) <= 3 * math.hypot(cond.stderr,
                                                           crude.stderr)
    assert abs(quad - crude.value) / crude.value < 0.005
    analog = sum_tail_dblquad(-0.9, 5.0)
    assert matches_printed(analog, "0.121")
    print(f"\nACCEPTANCE 7 small-instance oracles: PASS "
          f"(quad {quad:.6f}, crude {crude.value:.6f}, cond {cond.value:.6f})")


def test_criterion_08_margin_mda_limit():
    spec = SPECS[0.0]
    bundle = spec.scaling_bundle()
    xs = [-2.0, -1.0, 0.0, 1.0, 2.0]

    def worst(u):
        rows = probe_margin_mda_limit(bundle, 0, [u], xs,
                                      lambda t: marginal_log_tail(spec, 0, t))
        return max(r.rel_error for r in rows)

    lo, hi = worst(1e4), worst(1e8)
    assert hi < 0.15, f"max rel deviation {hi:.3f} at u=1e8"
    assert hi < lo, f"no improvement: {hi:.3f} at 1e8 vs {lo:.3f} at 1e4"
    print(f"\nACCEPTANCE 8 margin MDA limit: PASS "
          f"(max dev {lo:.3f} at 1e4 -> {hi:.3f} at 1e8)")


def test_criterion_09_angular_reduction():
    start = time.perf_counter()
    law = make_radial("ChiOfDim", 3)
    lo = angular_reduction_check(law, 1.0, 1.0, 1.0, 3, 1e4)
    hi = angular_reduction_check(law, 1.0, 1.0, 1.0, 3, 1e8)
    elapsed = time.perf_counter() - start
    assert 0.85 <= hi.ratio <= 1.15, f"ratio {hi.ratio:.4f} outside band"
    assert abs(hi.ratio - 1.0) < abs(lo.ratio - 1.0)
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 9 angular reduction: PASS "
          f"(ratio {lo.ratio:.4f} at 1e4 -> {hi.ratio:.4f} at 1e8, {elapsed:.1f}s)")


def test_criterion_10_cli_worker_determinism(capsys, monkeypatch):
    outputs = []
    for workers in ("1", "2", "8"):
        monkeypatch.setenv("TAILSUM_THREADS", workers)
        code = main(["mc", "--config", "table3", "--u", "10",
                     "--n", "200000", "--seed", "99"])
        assert code == 0
        out = capsys.readouterr().out
        outputs.append([ln for ln in out.splitlines() if "elapsed" not in ln])
    assert outputs[0] == outputs[1] == outputs[2]
    print("\nACCEPTANCE 10 worker determinism: PASS (1, 2, 8 workers identical)")
