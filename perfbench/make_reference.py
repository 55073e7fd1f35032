#!/usr/bin/env python3
"""Recompute ``reference.json``, the values the benchmark checks estimates against.

Every reference is a conditional largest-claim estimate
(``conditional_max_mc``) at many more draws than a benchmark pass uses, so
its standard error is a small part of the band.  ``crude_d2`` is checked
against the conditional estimator, an independent method, rather than
against crude MC itself.  ``table1_cond`` is checked against the published
MC column; its reference here measures how far that column sits from a
precise estimate, which widens the band by that much.

Usage, from the repository root (about 3 minutes on 2 cores):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from tailsum import ModelSpec, conditional_max_mc  # noqa: E402
from tailsum.cli import load_config  # noqa: E402

# Entropy for the reference seeds, apart from any benchmark --seed path.
REFERENCE_ENTROPY = 0x7461696C73756D  # "tailsum"
WORKERS = 2


def _points(spec, us, n, seed):
    points = []
    for idx, u in enumerate(us):
        est = conditional_max_mc(spec, u, n, seed ^ idx, workers=WORKERS)
        points.append({"u": u, "value": est.value, "stderr": est.stderr,
                       "n": n, "seed": seed ^ idx})
        print(f"  u={u:g}: {est.value!r} +- {est.stderr!r} ({est.elapsed:.1f} s)",
              flush=True)
    return points


def main() -> int:
    seed = int(np.random.SeedSequence(REFERENCE_ENTROPY).generate_state(1, np.uint64)[0])
    table1 = load_config("table1")
    jobs = {
        "table1_cond": (table1.build_model(), list(table1.u_list), 2 * 10**7),
        "cond_d5": (ModelSpec.standard(5, 0.5), [100.0, 1e4], 4 * 10**7),
        "crude_d2": (ModelSpec.standard(2, 0.5), [10.0, 30.0, 50.0], 2 * 10**7),
    }
    out = {}
    for name, (spec, us, n) in jobs.items():
        print(name, flush=True)
        start = time.perf_counter()
        out[name] = {
            "how": (f"conditional_max_mc(spec, u, n={n}, seed=<seed> ^ index, "
                    f"workers={WORKERS}) on the workload's model; "
                    "perfbench/make_reference.py"),
            "points": _points(spec, us, n, seed),
        }
        print(f"  {time.perf_counter() - start:.0f} s", flush=True)
    with open(HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
