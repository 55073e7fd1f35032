#!/usr/bin/env python3
"""Benchmark of tailsum's Monte Carlo estimators, end to end and by layer.

Usage, from the repository root:

    python3 perfbench/run.py --workload table1_cond --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke

A run derives its inputs from --seed, runs whole passes of the workload for
about --seconds in a closed loop (one caller, each estimate started after
the previous one returned), checks every estimate and prints every metric
by name with its unit.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 0 when every gate passed, 1 when one failed and 2 when tailsum
cannot be run at all (nothing is printed to standard output then).

Workloads (see workloads.py):

  table1_cond  build_table on the bundled table1 config, 19 thresholds,
               conditional MC at n=1e6 each, 1 worker
  cond_d5      conditional_max_mc, d=5, rho=0.5, u in {100, 1e4},
               n=2e6 each, 1 worker
  crude_d2     crude_mc, d=2, rho=0.5, u in {10, 30, 50}, n=1e7 each,
               2 workers

--trace 0 reports the end-to-end metrics, from untraced passes:

  wall_s          median wall time of one pass
  time_to_1pct_s  median over passes of sum_i wall_i * (rel_stderr_i / 0.01)^2,
                  the work-normalised variance as seconds to reach 1% error
  setup_s         median over fresh interpreters of importing tailsum and
                  building the workload's model
  peak_rss_mb     peak resident memory of this process

failed_frac, failed / attempted of the result line, is printed with them.
It is 0 on a correct run, so it is not a metric with a bound.

--trace 1 alternates an untraced and a traced pass on the same seed and
reports the per-layer metrics of ``tracing.LAYER_METRICS``, medians over
the traced passes; trace.overhead_frac compares the two kinds of pass.

--smoke runs every workload at tiny n, untraced and traced, in a few
seconds, and prints every metric of both kinds.

Each run writes perfbench/out/<workload>-<seed>-trace<k>.json: machine and
version metadata, the metrics, the first pass's estimates, the failed
gates and, when traced, every span.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("table1_cond", "cond_d5", "crude_d2")


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at tiny n, untraced and traced")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if not (SRC / "tailsum" / "__init__.py").is_file():
        return _fail(f"no tailsum sources under {SRC}")
    if not (ROOT / "tests" / "reference_tables.py").is_file():
        return _fail("tests/reference_tables.py, which holds the published "
                     "tables the gates use, is missing")
    sys.path.insert(0, str(SRC))
    # Imported only now, so that a checkout without tailsum fails above
    # with a message rather than with an import error.
    import harness

    return harness.run_smoke(args) if args.smoke else harness.run_one_workload(args)


if __name__ == "__main__":
    sys.exit(main())
