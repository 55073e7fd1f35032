"""Measurement, gates and reporting of one benchmark run; see run.py."""

from __future__ import annotations

import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import LAYER_METRICS, Tracer, median_metrics, pass_metrics
from workloads import WORKLOADS, sub_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

END_TO_END = {"wall_s": "s", "time_to_1pct_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
SETUP_REPEATS = 5
TARGET_REL_ERROR = 0.01


# ---------------------------------------------------------------------------
# Metadata
# ---------------------------------------------------------------------------

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "--git-dir", str(ROOT / ".git"),
                               "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_lines() -> dict:
    """``wc -l src/tailsum/*.py``."""
    lines = {p.name: p.read_bytes().count(b"\n")
             for p in sorted((SRC / "tailsum").glob("*.py"))}
    lines["total"] = sum(lines.values())
    return lines


def metadata() -> dict:
    import numpy
    import scipy
    import tailsum

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "kernel_backend": getattr(tailsum, "kernel_backend", "numpy"),
        "git_commit": _git_commit(),
        "src_lines": _source_lines(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure_setup(code: str, repeats: int) -> float:
    """Median wall time of a fresh interpreter running ``code``."""
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                       check=True, timeout=120, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def time_to_target(estimates) -> float:
    """Seconds the pass would need for every estimate to reach 1% error."""
    return sum(e.wall * (e.rel_stderr / TARGET_REL_ERROR) ** 2 for e in estimates)


def timed_pass(workload, pass_seed: int):
    start = time.perf_counter()
    estimates = workload.run_pass(pass_seed)
    return time.perf_counter() - start, estimates


class Run:
    """The passes of one run, their gates and their metrics."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.estimates = []      # every estimate of every pass
        self.first_pass = []
        self.checks = []
        self.metrics = {}        # name -> (value, unit)
        self.spans = []          # one list per traced pass
        self.walls = {}          # pass kind -> wall time of each pass
        self.absent = []

    def _passes(self, seconds: float, run_one):
        """Run passes until another typical one would overrun ``seconds``,
        then the run-wide gates, outside the measured time."""
        walls = []
        started = time.perf_counter()
        while not walls or (time.perf_counter() - started
                            + statistics.median(walls) <= seconds):
            wall, estimates = run_one(sub_seed(self.seed, len(walls)))
            walls.append(wall)
            if not self.first_pass:
                self.first_pass = estimates
        self.checks = self.workload.run_checks(self.first_pass, sub_seed(self.seed, 0))

    def untraced(self, seconds: float, setup_repeats: int) -> None:
        walls, targets = [], []
        self.walls = {"untraced": walls}

        def run_one(pass_seed):
            wall, estimates = timed_pass(self.workload, pass_seed)
            walls.append(wall)
            targets.append(time_to_target(estimates))
            self.estimates.extend(estimates)
            return wall, estimates

        self._passes(seconds, run_one)
        setup = measure_setup(self.workload.setup_code(), setup_repeats)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        values = {"wall_s": statistics.median(walls),
                  "time_to_1pct_s": statistics.median(targets),
                  "setup_s": setup, "peak_rss_mb": rss_mb}
        self.metrics = {k: (values[k], unit) for k, unit in END_TO_END.items()}

    def traced(self, seconds: float) -> None:
        plain, traced, per_pass = [], [], []
        self.walls = {"untraced": plain, "traced": traced}

        def run_one(pass_seed):
            wall_plain, estimates = timed_pass(self.workload, pass_seed)
            self.estimates.extend(estimates)
            tracer = Tracer()
            with tracer.installed():
                with tracer.span("workload.pass"):
                    wall, estimates = timed_pass(self.workload, pass_seed)
            self.estimates.extend(estimates)
            self.spans.append(tracer.spans)
            self.absent = tracer.absent
            plain.append(wall_plain)
            traced.append(wall)
            layer = pass_metrics(tracer.spans, wall, self.workload.workers)
            layer["montecarlo.rel_stderr_max"] = max(e.rel_stderr for e in estimates)
            per_pass.append(layer)
            return wall_plain + wall, estimates

        self._passes(seconds, run_one)
        values = median_metrics(per_pass)
        values["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(plain) - 1.0)
        self.metrics = {k: (values[k], unit) for k, unit in LAYER_METRICS.items()}

    @property
    def attempted(self) -> int:
        return len(self.estimates) + len(self.checks)

    @property
    def failures(self) -> list[str]:
        out = [f"{e.label}: {p}" for e in self.estimates for p in e.problems]
        out += [f"{c.name}: {c.detail}" for c in self.checks if not c.ok]
        return out

    @property
    def failed(self) -> int:
        return (sum(1 for e in self.estimates if e.problems)
                + sum(1 for c in self.checks if not c.ok))

    def report(self, tag: str, meta: dict) -> None:
        """Print the metrics by name and write the run's JSON file."""
        passes = ", ".join(f"{len(w)} {kind}" for kind, w in self.walls.items())
        print(f"{self.workload.name} ({tag}): passes {passes}; "
              f"{self.attempted} attempted, {self.failed} failed")
        for name, (value, unit) in self.metrics.items():
            print(f"  {name:34s} {value:.6g} {unit}")
        print(f"  {'failed_frac':34s} {self.failed / self.attempted:.6g} fraction")
        for line in self.failures:
            print(f"  FAILED {line}")
        for label in self.absent:
            print(f"  layer absent: {label}")
        OUT.mkdir(exist_ok=True)
        record = {
            "workload": self.workload.name, "seed": self.seed, "tag": tag,
            "metadata": meta,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in self.metrics.items()},
            "pass_walls": self.walls,
            "attempted": self.attempted, "failed": self.failed,
            "failures": self.failures,
            "checks": [vars(c) for c in self.checks],
            "first_pass": [{"label": e.label, "u": e.u, "value": e.value,
                            "stderr": e.stderr, "wall": e.wall,
                            "problems": e.problems} for e in self.first_pass],
            "absent_layers": self.absent,
            "spans": [[vars(s) for s in spans] for spans in self.spans],
        }
        path = OUT / f"{self.workload.name}-{tag}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def run_one_workload(args) -> int:
    workload = WORKLOADS[args.workload](smoke=False)
    workload.warm_up()
    run = Run(workload, args.seed)
    if args.trace:
        run.traced(args.seconds)
    else:
        run.untraced(args.seconds, SETUP_REPEATS)
    meta = metadata()
    print("metadata: " + json.dumps(meta))
    run.report(f"{args.seed}-trace{args.trace}", meta)
    print(_result_line(run.failed == 0, run.attempted, run.failed, run.metrics))
    return 0 if run.failed == 0 else 1


def run_smoke(args) -> int:
    """Every workload at tiny n, one untraced and one traced pass each."""
    meta = metadata()
    print("metadata: " + json.dumps(meta))
    attempted = failed = 0
    metrics = {}
    for name, cls in WORKLOADS.items():
        workload = cls(smoke=True)
        workload.warm_up()
        for trace in (0, 1):
            run = Run(workload, args.seed)
            if trace:
                run.traced(0.0)
            else:
                run.untraced(0.0, 1)
            run.report(f"smoke-trace{trace}", meta)
            attempted += run.attempted
            failed += run.failed
            metrics.update({f"{name}:{k}": v for k, v in run.metrics.items()})
    print(_result_line(failed == 0, attempted, failed, metrics))
    return 0 if failed == 0 else 1
