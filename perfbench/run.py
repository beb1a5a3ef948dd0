"""vpfp benchmark runner.

    python3 perfbench/run.py --workload sweep_default --seed 0 --seconds 36 --trace 0

Runs repetitions of one workload, each in a fresh single-threaded worker
process (``worker.py``), until ``--seconds`` have passed.  With ``--trace 0``
it reports the end-to-end metrics of untraced repetitions; with ``--trace 1``
it alternates untraced and traced repetitions and reports the per-layer
metrics of the traced ones (plus the tracing overhead).  Every repetition
is one operation; it fails if it raises, writes non-finite output or fails
the correctness gate.

Prints every metric by name with its unit and the correctness verdict,
writes the full record with provenance to
``.perfbench/results/<workload>_seed<n>_<e2e|trace>.json``, and prints one
JSON object as the last stdout line.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".perfbench"
SRC = ROOT / "src"

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
MIN_REPS = 3  # per repetition kind (untraced, traced)
WORKER_TIMEOUT_S = 120

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# metric -> (unit, reduction, source); see tracer.layer_samples for sources.
#   median / p99: over per-call self times pooled from all traced repetitions
#   total: median over repetitions of a per-entry-call total or count
PER_LAYER = {
    "solver.warm_step_ms": ("ms", "median", "solver.warm_step"),
    "solver.step_p99_ms": ("ms", "p99", "solver.warm_step"),
    "solver.cold_step_ms": ("ms", "median", "solver.cold_step"),
    "solver.steps": ("count", "total", "solver.steps"),
    "operators.vpfp_rhs_ms": ("ms", "median", "operators.vpfp_rhs"),
    "operators.moments_ms": ("ms", "median", "operators.moments"),
    "operators.solve_poisson_ms": ("ms", "median", "operators.solve_poisson"),
    "operators.fft_calls_per_step": ("calls/step", "per_step", "operators.fft_calls"),
    "ddp.step_ms": ("ms", "median", "ddp.step"),
    "ddp.steps": ("count", "total", "ddp.steps"),
    "diagnostics.energy_ms": ("ms", "median", "diagnostics.energy"),
    "diagnostics.limit_error_ms": ("ms", "median", "diagnostics.limit_error"),
    "diagnostics.samples": ("count", "total", "diagnostics.samples"),
    "harness.initial_data_ms": ("ms", "median", "harness.initial_data"),
    "harness.io_ms": ("ms", "total", "harness.io_ms"),
    "spectral.hermite_table_ms": ("ms", "median", "spectral.hermite_table"),
    "trace.overhead_frac": ("ratio", "overhead", None),
}


def quantile(values, q: float) -> float:
    """Linear-interpolation quantile; 0.0 for a layer that never ran."""
    if not values:
        return 0.0
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def spread(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


# ---------------------------------------------------------------------------
# provenance

def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def src_digest() -> str:
    """SHA-256 over src/**/*.py, so a result names its code without git."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance() -> dict:
    return {
        "git_sha": git_sha(),
        "src_sha256": src_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_available": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {var: "1" for var in THREAD_VARS},
    }


# ---------------------------------------------------------------------------
# repetitions

def run_worker(workload: str, seed: int, traced: bool, reference: Path | None = None) -> dict:
    """One repetition in a fresh process; never raises for a failed repetition."""
    env = dict(os.environ, **{var: "1" for var in THREAD_VARS})
    work = STATE / "work"
    work.mkdir(parents=True, exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(dir=work))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--out", str(out_dir)]
    if reference is not None:
        cmd += ["--reference", str(reference)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "error": f"worker timed out after {WORKER_TIMEOUT_S} s"}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        result = {"error": f"worker exited {proc.returncode} without a result: {tail}"}
    result["traced"] = traced
    return result


def failed(rep: dict) -> bool:
    return "error" in rep or bool(rep["problems"])


def end_to_end(reps: list[dict]) -> dict:
    timed = [r for r in reps if "wall_s" in r and not r["traced"]]
    return {name: {"unit": unit, **spread([r[name] for r in timed])}
            for name, unit in END_TO_END.items()} if timed else {}


def per_layer(reps: list[dict]) -> tuple[dict, list]:
    """Per-layer metrics from the traced repetitions; names whose wrap target
    is gone are left out and listed as absent."""
    traced = [r["trace"] for r in reps if "trace" in r]
    untraced = [r["wall_s"] for r in reps if "wall_s" in r and not r["traced"]]
    traced_wall = [r["wall_s"] for r in reps if "trace" in r]
    if not traced or not untraced:
        return {}, sorted(PER_LAYER)
    absent = set().union(*(t["absent"] for t in traced))
    pooled: dict = {}
    totals: dict = {}
    for t in traced:
        for key, vals in t["samples_ms"].items():
            pooled.setdefault(key, []).extend(vals)
        for key, val in t["totals"].items():
            totals.setdefault(key, []).append(val)

    metrics, missing = {}, []
    for name, (unit, how, source) in PER_LAYER.items():
        if how == "overhead":
            value = statistics.median(traced_wall) / statistics.median(untraced) - 1.0
        elif source in absent:
            missing.append(name)
            continue
        elif how == "median":
            value = quantile(pooled[source], 0.5)
        elif how == "p99":
            value = quantile(pooled[source], 0.99)
        elif how == "total":
            value = statistics.median(totals[source])
        elif how == "per_step":
            value = statistics.median(calls / steps for calls, steps in
                                      zip(totals[source], totals["solver.steps"]))
        metrics[name] = {"value": value, "unit": unit}
    return metrics, missing


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    compileall.compile_dir(SRC, quiet=1)  # the first repetition pays no byte-compiling
    kinds = (False, True) if trace else (False,)
    reps: list[dict] = []
    durations: list[float] = []
    deadline = time.perf_counter() + seconds
    # start a repetition only if a typical one still ends before the deadline
    while (len(reps) < MIN_REPS * len(kinds)
           or time.perf_counter() + statistics.median(durations) < deadline):
        t0 = time.perf_counter()
        reps.append(run_worker(workload, seed, kinds[len(reps) % len(kinds)]))
        durations.append(time.perf_counter() - t0)

    e2e = end_to_end(reps)
    layers, absent = per_layer(reps) if trace else ({}, [])
    shapes = [r["shape"] for r in reps if "shape" in r]
    numpy_versions = sorted({r["numpy"] for r in reps if "numpy" in r})
    record = {
        "workload": workload,
        "why": workloads.WORKLOADS[workload].why,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "provenance": {**provenance(), "numpy": numpy_versions, "shape": shapes[:1]},
        "ops": len(reps),
        "ops_failed": sum(failed(r) for r in reps),
        "errors": [r.get("error") or r["problems"][:5] for r in reps if failed(r)],
        "end_to_end": e2e,
        "per_layer": layers,
        "absent": absent,
        "missing_targets": sorted({m for r in reps if "trace" in r
                                   for m in r["trace"]["missing_targets"]}),
        "repetitions": [{k: v for k, v in r.items() if k != "trace"} for r in reps],
        "trace_totals": [r["trace"]["totals"] for r in reps if "trace" in r],
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}_seed{seed}_{'trace' if trace else 'e2e'}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    record["path"] = path
    return record


def report(record: dict) -> None:
    verdict = "correct" if record["ops_failed"] == 0 else "INCORRECT"
    prov = record["provenance"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"({'traced' if record['trace'] else 'untraced'}): {record['ops']} ops, "
          f"{record['ops_failed']} failed -> {verdict}")
    print(f"  shape {prov['shape'][0] if prov['shape'] else '?'}")
    print(f"  git {prov['git_sha']} src {prov['src_sha256'][:12]} python {prov['python']} "
          f"numpy {','.join(prov['numpy'])} nproc {prov['nproc']} threads pinned to 1")
    for err in record["errors"][:5]:
        print(f"  failed op: {err}")
    for name, m in record["end_to_end"].items():
        print(f"  {name:<30} {m['median']:12.6g} {m['unit']:<10} "
              f"(q1 {m['q1']:.6g}, q3 {m['q3']:.6g}, n={m['n']})")
    for name, m in record["per_layer"].items():
        print(f"  {name:<30} {m['value']:12.6g} {m['unit']}")
    for name in record["absent"]:
        print(f"  {name:<30} absent: no longer traced")
    if record["missing_targets"]:
        print(f"  traced names not found: {', '.join(record['missing_targets'])}")
    print(f"  full record: {record['path'].relative_to(ROOT)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "vpfp" / "__init__.py").is_file():
        print(f"no vpfp sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    report(record)
    metrics = record["per_layer"] if args.trace else {
        name: {"value": m["median"], "unit": m["unit"]} for name, m in record["end_to_end"].items()}
    if not record["end_to_end"]:
        print("no repetition completed; nothing to report", file=sys.stderr)
        return 1
    print(json.dumps({"correct": record["ops_failed"] == 0, "attempted": record["ops"],
                      "failed": record["ops_failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
