"""Tests of the benchmark harness, through its smoke mode.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from tracing import LAYER_METRICS, Tracer  # noqa: E402


def _benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_smoke_runs_every_workload_and_reports_every_metric():
    done = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    bench = _benchmark_json()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    for workload in (w["name"] for w in bench["workloads"]):
        for name in names:
            metric = result["metrics"][f"{workload}:{name}"]
            assert isinstance(metric["value"], (int, float)), (workload, name)
            assert f"  {name} " in done.stdout  # printed by name with its unit
    assert result["metrics"]["cond_d5:kernels.conditional_s"]["value"] > 0.0
    assert result["metrics"]["crude_d2:model.draw_s"]["value"] > 0.0
    assert result["metrics"]["crude_d2:kernels.conditional_s"]["value"] == 0.0


def test_benchmark_json_matches_the_harness():
    import run
    import workloads

    bench = _benchmark_json()
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert [m["name"] for m in bench["per_layer"]] == list(LAYER_METRICS)
    assert all(m["unit"] == LAYER_METRICS[m["name"]] for m in bench["per_layer"])


def test_rows_built_one_at_a_time_match_the_whole_table():
    from workloads import Table1Conditional

    from tailsum import diagnostics

    workload = Table1Conditional(smoke=True)
    us = workload.thresholds()[:3]
    options = diagnostics.McOptions(n=1000, seed=77, workers=1)
    whole = diagnostics.build_table(workload.spec, us, options)
    rows = [workload.estimate(idx, u, 77 ^ idx, 1000).row for idx, u in enumerate(us)]
    assert rows == whole


def test_missing_layer_is_reported_absent_and_the_rest_still_traced():
    import tailsum.montecarlo as montecarlo

    saved = montecarlo._draw_chunk
    original = montecarlo.conditional_max_mc
    del montecarlo._draw_chunk
    tracer = Tracer()
    try:
        with tracer.installed():
            spec = montecarlo.ModelSpec.standard(2, 0.5)
            montecarlo.conditional_max_mc(spec, 10.0, 1000, seed=1)
    finally:
        montecarlo._draw_chunk = saved
    assert tracer.absent == ["tailsum.montecarlo._draw_chunk"]
    names = {s.name for s in tracer.spans}
    assert {"montecarlo.estimate", "montecarlo.plan", "montecarlo.run_chunks",
            "montecarlo.task", "kernels.conditional"} <= names
    assert montecarlo.conditional_max_mc is original


def test_task_spans_on_pool_threads_have_the_run_chunks_parent():
    import tailsum.montecarlo as montecarlo

    tracer = Tracer()
    with tracer.installed():
        spec = montecarlo.ModelSpec.standard(2, 0.5)
        montecarlo.crude_mc(spec, 10.0, 3 * 65536, seed=1, workers=2)
    by_id = {s.id: s for s in tracer.spans}
    tasks = [s for s in tracer.spans if s.name == "montecarlo.task"]
    assert len(tasks) == 3
    assert all(by_id[t.parent].name == "montecarlo.run_chunks" for t in tasks)
    draws = [s for s in tracer.spans if s.name == "model.draw"]
    assert all(by_id[d.parent].name == "montecarlo.task" for d in draws)
    assert sum(d.counts["rows"] for d in draws) == 3 * 65536


def test_no_result_line_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload",
                           "cond_d5", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
