"""Fast self-test of the benchmark itself (about ten seconds).

    python3 perfbench/selftest.py

Checks that
1. BENCHMARK.json lists exactly the metrics run.py reports, with their units;
2. a repetition gated against a perturbed reference counts as a failed op,
   while the same repetition against the recorded reference passes;
3. in a traced repetition no self time is negative, the self times sum to
   the traced wall time within trace.overhead_frac, every per-layer metric
   is present and the counts are the expected ones;
4. run.py exits non-zero without a result line in a directory that holds
   only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import workloads

WORKLOAD, SEED = "kinetic_wide", 0


def check_manifest() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert e2e == run.END_TO_END, (e2e, run.END_TO_END)
    assert layers == {name: unit for name, (unit, _, _) in run.PER_LAYER.items()}, layers
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)


def check_gate() -> dict:
    ref_path = workloads.reference_path(WORKLOAD, workloads.profile_mode(SEED))
    ref = json.loads(ref_path.read_text())
    ref["columns"]["E_k"][5] *= 1.0 + 1e-8
    perturbed = run.STATE / "work" / "perturbed_reference.json"
    perturbed.parent.mkdir(parents=True, exist_ok=True)
    perturbed.write_text(json.dumps(ref))

    good = run.run_worker(WORKLOAD, SEED, traced=False)
    bad = run.run_worker(WORKLOAD, SEED, traced=False, reference=perturbed)
    perturbed.unlink()
    assert not run.failed(good), good.get("error") or good["problems"]
    assert run.failed(bad) and "error" not in bad, bad
    assert any("E_k[5]" in p for p in bad["problems"]), bad["problems"]
    assert sum(map(run.failed, (good, bad))) == 1
    return good


def check_trace(untraced: dict) -> None:
    traced = run.run_worker(WORKLOAD, SEED, traced=True)
    assert not run.failed(traced), traced.get("error") or traced["problems"]
    metrics, absent = run.per_layer([untraced, traced])
    assert not absent and set(metrics) == set(run.PER_LAYER), (absent, sorted(metrics))
    overhead = metrics["trace.overhead_frac"]["value"]
    t = traced["trace"]
    assert t["min_self_ms"] >= -1e-6, t["min_self_ms"]
    wall_ms = traced["wall_s"] * 1e3
    gap = abs(wall_ms - t["self_sum_ms"]) / wall_ms
    assert gap <= abs(overhead) + 1e-3, (gap, overhead)
    counts = {name: metrics[name]["value"] for name in
              ("solver.steps", "ddp.steps", "diagnostics.samples")}
    assert counts == {"solver.steps": 400, "ddp.steps": 0, "diagnostics.samples": 21}, counts


def check_bare_directory() -> None:
    bare = run.STATE / "work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", WORKLOAD,
                               "--seed", "0", "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=60)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)


def main() -> int:
    check_manifest()
    untraced = check_gate()
    check_trace(untraced)
    check_bare_directory()
    print("perfbench self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
