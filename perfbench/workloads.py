"""The benchmark's workloads: what one pass computes and how it is checked.

Each workload calls tailsum's public entry points in a closed loop: one
caller, each estimate started after the previous one returned.  Entry
points are looked up on their module at call time, so a ``Tracer`` that
replaced them sees the calls.

Every estimate passes three gates, and one that fails any of them counts
as failed:

* value and stderr are finite, and stderr > 0 (no ``0 +- 0``);
* the value lies within ``BAND_Z`` standard errors of the reference
  stored in ``reference.json`` (see ``make_reference.py``);
* ``table1_cond`` only: the row's asympt1, asympt2 and rho_hat round to
  the published values in ``tests/reference_tables.py``.

``crude_d2`` adds the worker-invariance gate: the same estimate at 1 and
at 2 workers must be bit-identical.
"""

from __future__ import annotations

import importlib.util
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from tailsum import ModelSpec, diagnostics, montecarlo
from tailsum.asymptotics import VARIANT_DENSITY, VARIANT_LIMIT
from tailsum.cli import load_config

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Band half-width in standard errors.  Comparing two commits takes dozens
# of runs of up to a few hundred checked estimates each, so 3 sigma would
# fail a correct program now and then; 5 sigma does so about once in 10^6
# checks.
BAND_Z = 5.0

U64 = (1 << 64) - 1

# Sizes in smoke mode: two chunks per conditional estimate, four per crude
# one (about 50 hits at u=50), so every gate still has something to check.
SMOKE_N_CONDITIONAL = 2 * 65536
SMOKE_N_CRUDE = 4 * 65536

_VARIANTS = {"density": VARIANT_DENSITY, "limit": VARIANT_LIMIT}


def sub_seed(seed: int, *path: int) -> int:
    """A 64-bit seed derived from the workload seed and a position in the run."""
    state = np.random.SeedSequence([seed, *path]).generate_state(1, np.uint64)
    return int(state[0])


def load_reference_tables():
    """The published tables, read from the test suite without changing it."""
    path = ROOT / "tests" / "reference_tables.py"
    spec = importlib.util.spec_from_file_location("reference_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_references() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Estimate:
    """One estimate of one pass, with the gates it failed."""

    label: str
    u: float
    value: float
    stderr: float
    wall: float
    problems: list[str] = field(default_factory=list)
    row: object = None  # the table row, for workloads that build a table

    @property
    def rel_stderr(self) -> float:
        return self.stderr / self.value if self.value > 0.0 else math.inf


@dataclass
class Check:
    """A gate on the run as a whole rather than on one estimate."""

    name: str
    ok: bool
    detail: str


def _finite_positive_stderr(est: Estimate) -> list[str]:
    if not (math.isfinite(est.value) and math.isfinite(est.stderr)):
        return [f"non-finite estimate {est.value!r} +- {est.stderr!r}"]
    if est.stderr <= 0.0:
        return [f"stderr {est.stderr!r} is not positive"]
    return []


def _band(est: Estimate, ref: dict, slack: float = 0.0) -> float:
    return BAND_Z * math.hypot(est.stderr, ref["stderr"]) + slack


class Workload:
    """A list of thresholds estimated in order; subclasses make one estimate."""

    name = ""
    workers = 1

    def __init__(self, smoke: bool):
        self.reference = {p["u"]: p for p in load_references()[self.name]["points"]}

    def setup_code(self) -> str:
        """Python that a fresh interpreter runs to time set-up: import
        tailsum and build the workload's model."""
        raise NotImplementedError

    def thresholds(self) -> list[float]:
        raise NotImplementedError

    def estimate(self, idx: int, u: float, seed: int, n: int) -> Estimate:
        raise NotImplementedError

    def run_pass(self, seed: int) -> list[Estimate]:
        """One pass over the thresholds; seeds derive as seed XOR index."""
        results = []
        for idx, u in enumerate(self.thresholds()):
            try:
                est = self.estimate(idx, u, (seed ^ idx) & U64, self.n)
            except Exception as exc:  # a raising estimate counts as failed
                traceback.print_exc()
                est = Estimate(f"u={u:g}", u, math.nan, math.nan, math.nan,
                               [f"raised {type(exc).__name__}: {exc}"])
            else:
                est.problems.extend(self.check(est))
            results.append(est)
        return results

    def warm_up(self) -> None:
        """Load what the first call loads lazily, outside the timed passes."""
        self.estimate(0, self.thresholds()[0], 0, 4096)

    def check(self, est: Estimate) -> list[str]:
        problems = _finite_positive_stderr(est)
        if problems:
            return problems
        ref = self.reference[est.u]
        band = _band(est, ref)
        if abs(est.value - ref["value"]) > band:
            problems.append(f"{est.value!r} outside {ref['value']!r} +- {band:.3g}")
        return problems

    def run_checks(self, first_pass: list[Estimate], pass_seed: int) -> list[Check]:
        """Gates on the run as a whole, given the first pass and its seed."""
        return []


class Table1Conditional(Workload):
    """``build_table`` on the bundled table1 config with its MC column."""

    name = "table1_cond"

    def __init__(self, smoke: bool):
        super().__init__(smoke)
        self.config = load_config("table1")
        self.spec = self.config.build_model()
        self.n = SMOKE_N_CONDITIONAL if smoke else self.config.mc_n
        self._tables = load_reference_tables()
        self.published = {row.u: row for row in self._tables.TABLE_1}

    def setup_code(self):
        return ("import tailsum; from tailsum.cli import load_config; "
                "load_config('table1').build_model()")

    def thresholds(self) -> list[float]:
        return list(self.config.u_list)

    def estimate(self, idx, u, seed, n):
        # One build_table call per row gives per-row wall times; with seed
        # ``s ^ idx`` the row is bit-identical to row idx of a whole-table
        # call with seed ``s``.
        options = diagnostics.McOptions(
            estimator=montecarlo.ESTIMATOR_CONDITIONAL, n=n, seed=seed, workers=1)
        start = time.perf_counter()
        (row,) = diagnostics.build_table(self.spec, [u], options,
                                         c=self.config.epsilon_c,
                                         variant=_VARIANTS[self.config.variant])
        wall = time.perf_counter() - start
        return Estimate(f"u={u:g}", u, row.mc, row.mc_stderr, wall, row=row)

    def check(self, est):
        problems = _finite_positive_stderr(est)
        if problems:
            return problems
        printed = self.published[est.u]
        matches = self._tables.matches_printed
        for column in ("asympt1", "asympt2", "rho_hat"):
            value = getattr(est.row, column)
            if not matches(value, getattr(printed, column)):
                problems.append(f"{column} {value!r} does not round to "
                                f"{getattr(printed, column)}")
        # The published MC column is itself an estimate: the band is widened
        # by its print quantum and by its measured offset from the stored
        # large-n reference, as acceptance criterion 3 does.
        ref = self.reference[est.u]
        pub = float(printed.mc)
        slack = (0.5 * self._tables.printed_quantum(printed.mc)
                 + abs(ref["value"] - pub))
        band = _band(est, ref, slack)
        if abs(est.value - pub) > band:
            problems.append(f"{est.value!r} outside published {printed.mc} "
                            f"+- {band:.3g}")
        return problems


class EstimatorWorkload(Workload):
    """One tailsum estimator over a few thresholds of a standard model."""

    estimator = ""
    d = 2
    rho = 0.0
    us: tuple = ()
    full_n = 0
    smoke_n = 0

    def __init__(self, smoke: bool):
        super().__init__(smoke)
        self.spec = ModelSpec.standard(self.d, self.rho)
        self.n = self.smoke_n if smoke else self.full_n

    def setup_code(self):
        return f"import tailsum; tailsum.ModelSpec.standard({self.d}, {self.rho})"

    def thresholds(self):
        return list(self.us)

    def estimate(self, idx, u, seed, n, workers=None):
        run = getattr(montecarlo, self.estimator)
        start = time.perf_counter()
        est = run(self.spec, u, n, seed, workers=workers or self.workers)
        wall = time.perf_counter() - start
        return Estimate(f"u={u:g}", u, est.value, est.stderr, wall)


class ConditionalD5(EstimatorWorkload):
    name = "cond_d5"
    estimator = "conditional_max_mc"
    d, rho = 5, 0.5
    us = (100.0, 1e4)
    full_n = 2 * 10**6
    smoke_n = SMOKE_N_CONDITIONAL


class CrudeD2(EstimatorWorkload):
    name = "crude_d2"
    estimator = "crude_mc"
    workers = 2
    d, rho = 2, 0.5
    us = (10.0, 30.0, 50.0)
    full_n = 10**7
    smoke_n = SMOKE_N_CRUDE

    def run_checks(self, first_pass, pass_seed):
        """Worker invariance: the pass's first estimate again at 1 worker."""
        ref = first_pass[0]
        one = self.estimate(0, ref.u, pass_seed, self.n, workers=1)
        same = (one.value, one.stderr) == (ref.value, ref.stderr)
        return [Check("workers_1_vs_2", same,
                      f"u={ref.u:g}: 1 worker {one.value!r} +- {one.stderr!r}, "
                      f"{self.workers} workers {ref.value!r} +- {ref.stderr!r}")]


WORKLOADS = {cls.name: cls for cls in (Table1Conditional, ConditionalD5, CrudeD2)}
