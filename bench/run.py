"""pbadapt benchmark: seeded closed-loop workloads checked against analytic oracles.

Run from the repository root:

    python3 bench/run.py --workload adapt_offcenter --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0

One caller runs the workload's operation again and again, each after the
previous one returned, until ``--seconds`` have passed (always at least
once). The library runs with its default ``threads=None``; BLAS threads are
capped at the number of CPUs this process may use.

With ``--trace 0`` the run is untraced and yields the end-to-end metrics.
With ``--trace 1`` every public pbadapt function the workload reaches is
wrapped by ``spans.Tracer`` and the run yields per-layer self times and
counters; those spans are also written to ``.bench_build/``.

Output: one JSON line ``{"report": ...}`` holding every metric with its
unit, the computed energies, the oracle, the gate's findings and the run
environment; then, as the last line, the result
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
``end_to_end`` (trace 0) or ``per_layer`` (trace 1) lists of
``BENCHMARK.json``. ``--workload all`` runs every workload in a fresh
process, untraced and traced, and prints both plus the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build"
WORKLOAD_NAMES = ("adapt_offcenter", "solve_born_l4", "estimate_manycharge")
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "rel_err": "ratio",
    "time_to_1pct_s": "s", "effectivity_err": "ratio",
    "kernels.pair_evals": "count", "kernels.near_pairs": "count",
    "kernels.row_block_evals": "count", "solver.gmres_iters": "count",
    "solver.unknowns": "count", "solver.matrix_mb": "MB", "physics.targets": "count",
    "estimator.fine_panels": "count", "mesh.marked": "count",
    "mesh.closure_refine4": "count", "mesh.closure_bisect": "count",
    "mesh.panels_final": "count", "mesh.snap_collisions": "count",
    "driver.bytes_written": "B", "oracle.reference_s": "s",
    "trace.wall_s": "s", "trace.unattributed_s": "s", "trace.spans": "count",
}


def cap_blas_threads() -> None:
    """Cap BLAS threads at the usable CPU count; must run before numpy loads."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        current = os.environ.get(var, "")
        want = min(int(current), ncpu) if current.isdigit() and int(current) > 0 else ncpu
        os.environ[var] = str(want)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown"
    return ref


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "git_commit": git_commit(),
        "seed": seed,
    }


def metric(value, name):
    return {"value": value, "unit": UNITS.get(name, "s" if name.endswith("_s") else None)}


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str, import_s: float):
    from pbadapt.errors import PbAdaptError
    from spans import COUNT_METRICS, SnapCollisionCounter, Tracer
    from workloads import WORKLOADS, effectivity_err, time_to_1pct

    wl = WORKLOADS[name]
    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        inputs = wl.setup(size, seed)
        setup_times.append(time.perf_counter() - start)
    start = time.perf_counter()
    reference = wl.reference(inputs)
    oracle_s = time.perf_counter() - start

    OUT.mkdir(exist_ok=True)
    walls, outcomes, problems = [], [], []
    tracer = Tracer() if trace else None
    with tempfile.TemporaryDirectory(dir=OUT) as tmp, SnapCollisionCounter() as snaps, (
        tracer or nullcontext()
    ):
        begin = time.perf_counter()
        while not walls or time.perf_counter() - begin < seconds:
            scratch = Path(tmp) / f"op{len(walls)}"
            scratch.mkdir()
            start = time.perf_counter()
            try:
                out = wl.run(inputs, scratch)
            except PbAdaptError as exc:  # e.g. SolverError: GMRES did not converge
                out, found = None, [f"{type(exc).__name__}: {exc}"]
            walls.append(time.perf_counter() - start)
            if out is not None:
                try:
                    found = wl.check(out, reference, size)
                except PbAdaptError as exc:  # e.g. effectivity undefined
                    found = [f"{type(exc).__name__}: {exc}"]
                if outcomes and out["energies"] != outcomes[0]["energies"]:
                    found.append("energies differ between repeated operations")
                outcomes.append(out)
            problems.append(found)

    n_ops = len(walls)
    failed = sum(bool(p) for p in problems)
    metrics = {
        "wall_s": metric(median(walls), "wall_s"),
        "setup_s": metric(import_s + median(setup_times), "setup_s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "peak_rss_mb"
        ),
        "oracle.reference_s": metric(oracle_s, "oracle.reference_s"),
        "mesh.snap_collisions": metric(snaps.count / n_ops, "mesh.snap_collisions"),
    }
    report = {
        "workload": name, "size": size, "trace": int(trace), "env": environment(seed),
        "operations": n_ops, "op_wall_s": walls, "import_s": import_s,
        "setup_repeats_s": setup_times, "reference_kcal_mol": reference,
        "problems": problems,
    }
    if outcomes:
        out = outcomes[0]
        metrics["rel_err"] = metric(abs(out["energies"][-1] - reference) / abs(reference), "rel_err")
        metrics["mesh.panels_final"] = metric(out["panels_final"], "mesh.panels_final")
        metrics["driver.bytes_written"] = metric(out.get("bytes_written", 0), "driver.bytes_written")
        if "iter_wall_s" in out:  # None: no iteration came within 1 %
            metrics["time_to_1pct_s"] = metric(time_to_1pct(out, reference), "time_to_1pct_s")
        if "estimate_Eu" in out and not failed:
            metrics["effectivity_err"] = metric(effectivity_err(out, reference), "effectivity_err")
        report["outcome"] = out
    if tracer is not None:
        times = tracer.self_times()
        traced_wall = sum(walls) / n_ops
        for key, value in times.items():
            metrics[key] = metric(value / n_ops, key)
        for key in COUNT_METRICS:
            value = tracer.counters[key]
            metrics[key] = metric(value if key == "solver.matrix_mb" else value / n_ops, key)
        metrics["trace.wall_s"] = metric(traced_wall, "trace.wall_s")
        metrics["trace.unattributed_s"] = metric(
            traced_wall - sum(times.values()) / n_ops, "trace.unattributed_s"
        )
        metrics["trace.spans"] = metric(len(tracer.spans) / n_ops, "trace.spans")
        spans_file = OUT / f"spans-{name}-seed{seed}.json"
        spans_file.write_text(json.dumps(tracer.dump()))
        report["spans_file"] = str(spans_file.relative_to(ROOT))
    report["metrics"] = metrics
    return report, n_ops, failed


def result_line(report, n_ops, failed, names):
    metrics = {k: report["metrics"][k] for k in names if k in report["metrics"]}
    return {"correct": failed == 0 and len(metrics) == len(names), "attempted": n_ops,
            "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Every workload in a fresh process, untraced then traced."""
    rows, ok, attempted, failed = {}, True, 0, 0
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--size", args.size]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or len(lines) < 2:
                sys.stderr.write(proc.stderr)
                return 1
            report, result = json.loads(lines[-2])["report"], json.loads(lines[-1])
            ok &= result["correct"]
            attempted += result["attempted"]
            failed += result["failed"]
            rows[(name, trace)] = report
            print(json.dumps({"report": report}))
    summary = {}
    for name in WORKLOAD_NAMES:
        plain, traced = rows[(name, 0)]["metrics"], rows[(name, 1)]["metrics"]
        merged = {**traced, **plain}  # end-to-end figures from the untraced run
        merged["trace.overhead_s"] = metric(
            traced["trace.wall_s"]["value"] - plain["wall_s"]["value"], "trace.overhead_s"
        )
        for key, m in sorted(merged.items()):
            print(f"{name:20s} {key:28s} {m['value']!r:>24} {m['unit']}")
            summary[f"{name}.{key}"] = m
    print(json.dumps({"correct": ok, "attempted": attempted, "failed": failed, "metrics": summary}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: level-1 meshes, 2 iterations, 10 charges (smoke test)")
    args = parser.parse_args(argv)

    spec_file = ROOT / "BENCHMARK.json"
    if not (SRC / "pbadapt" / "__init__.py").is_file() or not spec_file.is_file():
        print(f"error: {SRC / 'pbadapt'} or {spec_file} is missing", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    cap_blas_threads()
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import numpy  # noqa: F401  (set-up time includes the imports)
    import scipy  # noqa: F401
    import pbadapt  # noqa: F401

    import_s = time.perf_counter() - start
    report, n_ops, failed = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), args.size, import_s
    )
    spec = json.loads(spec_file.read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"report": report}))
    print(json.dumps(result_line(report, n_ops, failed, names)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
