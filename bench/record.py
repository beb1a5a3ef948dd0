"""Record this checkout's benchmark numbers in one JSON file.

    python3 bench/record.py --out BENCH_<n>.json

Runs perfbench/run.py on every workload of BENCHMARK.json for its
run_seconds at seed SEED, once with --trace 0 and once with --trace 1.  It
keeps the last JSON line of each run and the median and interquartile range
of each end-to-end metric (from the run's full record under
.perfbench/results/).  It then times run_single in this process at the north
star's sizes, n_x = n_v = 64, 128 and 192 (BDF2, epsilon 0.1, t = 1, 400
steps), and the default sweep's fluid reference, ddp_run at the sweep's
fluid step, a tenth of its fitted kinetic step (SweepConfig.fluid_dt: 4000
steps to t = 1), at n_x = 64, 128, 192 and 256, on both sides of ddp_step's
size rule (vpfp.ddp.DENSE_MAX_N_X, recorded beside the times); no benchmark
workload runs the fluid step above 64 points.  Each size's first call is cold
and WARM_REPS more are warm.  The file also names the git commit (and whether
the work tree differed from it), the digest of src/, nproc and the Python and
NumPy versions.  It takes about 6 * run_seconds plus half a minute.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0
WARM_REPS = 5  # at least 2, to give quartiles


def perfbench(workload: str, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True).stdout
    kind = "trace" if trace else "e2e"
    full = json.loads((ROOT / ".perfbench" / "results" / f"{workload}_seed{SEED}_{kind}.json")
                      .read_text())
    return {"last_line": json.loads(out.strip().splitlines()[-1]),
            "end_to_end": {name: {**m, "iqr": m["q3"] - m["q1"]}
                           for name, m in full["end_to_end"].items()},
            "provenance": full["provenance"]}


def cold_and_warm(call) -> dict:
    """The time of call's first run and the quartiles of WARM_REPS more."""
    times = []
    for _ in range(WARM_REPS + 1):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    q1, median, q3 = statistics.quantiles(times[1:], n=4)
    return {"cold_s": times[0],
            "warm_s": {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1, "n": WARM_REPS}}


def sweep_config(**grid):
    """The built-in sweep config with the grid settings given."""
    from vpfp import harness

    cfg = harness.default_sweep_config()
    cfg["grid"].update(grid)
    return harness.SweepConfig.from_dict(cfg)


def time_run_single(size: int) -> dict:
    from vpfp import harness

    cfg = sweep_config(n_x=size, n_v=size)
    return cold_and_warm(lambda: harness.run_single(cfg, 0.1))


def time_ddp_run(n_x: int) -> dict:
    """Cold and warm times of the default sweep's fluid reference on n_x
    points: ddp_run at the step the sweep derives, SweepConfig.fluid_dt, a
    tenth of its fitted kinetic step."""
    from vpfp import harness
    from vpfp.ddp import ddp_run

    cfg = sweep_config(n_x=n_x)
    grid, density = cfg.template.make_grid(), harness.initial_density(cfg)
    return cold_and_warm(lambda: ddp_run(grid, density, cfg.fluid_dt, cfg.template.t_final,
                                         cfg.sample_interval))


def git(*cmd: str) -> str:
    return subprocess.run(["git", *cmd], cwd=ROOT, capture_output=True, text=True).stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = manifest["run_seconds"]
    workloads = {w["name"]: {kind: perfbench(w["name"], seconds, trace)
                             for kind, trace in (("e2e", 0), ("trace", 1))}
                 for w in manifest["workloads"]}
    sys.path.insert(0, str(ROOT / "src"))
    from vpfp.ddp import DENSE_MAX_N_X

    in_process = {f"{n}x{n}": time_run_single(n) for n in (64, 128, 192)}
    fluid = {str(n_x): time_ddp_run(n_x) for n_x in (64, 128, 192, 256)}
    record = {
        "git_sha": git("rev-parse", "HEAD").strip() or None,
        "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no").strip()),
        "src_sha256": next(iter(workloads.values()))["e2e"]["provenance"]["src_sha256"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
        "seconds": seconds,
        "seed": SEED,
        "workloads": workloads,
        "run_single_bdf2_eps0.1": in_process,
        "ddp_run_default_sweep": {"dense_max_n_x": DENSE_MAX_N_X, "n_x": fluid},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
