"""Record the correctness-gate references from the current code.

    python3 perfbench/make_reference.py [WORKLOAD ...]

Runs every workload once per initial profile in ``workloads.PROFILE_MODES``
and writes ``perfbench/reference/<workload>_mode<m>.json``: the sweep's
per-epsilon metrics and rates, or every column of the kinetic run's energy
CSV.  The committed references were recorded from the code before any
performance change; re-record only for a deliberate change of the numbers.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    names = (argv if argv is not None else sys.argv[1:]) or sorted(workloads.WORKLOADS)
    sys.path.insert(0, str(ROOT / "src"))
    from vpfp import harness

    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    work = ROOT / ".perfbench" / "work"
    work.mkdir(parents=True, exist_ok=True)
    for name in names:
        wl = workloads.WORKLOADS[name]
        for seed, mode in enumerate(workloads.PROFILE_MODES):
            out_dir = Path(tempfile.mkdtemp(dir=work))
            try:
                cfg = wl.config(harness, seed)
                wl.call(harness, harness.SweepConfig.from_dict(cfg, out_dir=out_dir), out_dir)
                outputs = wl.read_outputs(out_dir)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)
            problems = workloads.invariants(wl, outputs)
            if problems:
                print(f"{name} mode {mode}: not recorded: {problems}", file=sys.stderr)
                return 1
            path = workloads.reference_path(name, mode)
            path.write_text(json.dumps(outputs, indent=1) + "\n")
            print(f"wrote {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
