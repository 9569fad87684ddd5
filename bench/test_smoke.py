"""Smoke test of the benchmark harness at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench``. Every
workload runs once untraced and once traced on level-1 meshes (2 adaptive
iterations, 10 charges); each must pass its gate and emit every named
metric with a unit.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

END_TO_END = ["wall_s", "setup_s", "peak_rss_mb", "rel_err"]
ONLY_FOR = {"adapt_offcenter": ["time_to_1pct_s"], "estimate_manycharge": ["effectivity_err"]}
PER_LAYER = [
    "kernels.pair_fine_s", "kernels.pair_coarse_s", "kernels.pair_evals", "kernels.near_pairs",
    "kernels.row_blocks_s", "kernels.row_block_evals", "kernels.near_search_s",
    "kernels.singular_s", "solver.assemble_self_s", "solver.gmres_s", "solver.gmres_iters",
    "solver.unknowns", "solver.matrix_mb", "physics.reaction_s", "physics.inside_test_s",
    "physics.targets", "estimator.estimate_s", "estimator.fine_panels", "mesh.mark_s",
    "mesh.close_s", "mesh.refine_s", "mesh.marked", "mesh.closure_refine4",
    "mesh.closure_bisect", "mesh.panels_final", "mesh.snap_collisions", "driver.iter_s",
    "driver.save_history_s", "driver.bytes_written", "oracle.reference_s",
]


def _run(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "1",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_with_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    report, result = json.loads(report_line)["report"], json.loads(result_line)

    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, report
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: m["unit"] for k, m in result["metrics"].items()
    }
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())

    named = END_TO_END + ONLY_FOR.get(workload, []) + (PER_LAYER if trace else [])
    missing = [k for k in named if not report["metrics"].get(k, {}).get("unit")]
    assert not missing
    assert report["outcome"]["energies"]

    if trace:
        m = {k: v["value"] for k, v in report["metrics"].items()}
        layers = sum(v for k, v in m.items() if k.endswith("_s") and k.split(".")[0] in (
            "kernels", "solver", "physics", "estimator", "mesh", "driver"))
        assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], abs=1e-9)


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("solve_born_l4", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
