"""One benchmark repetition in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 --out DIR
                                [--reference FILE]

Set-up time runs from the first statement of this file to the entry-point
call: it covers ``import vpfp`` and building the config.  The entry point
writes its outputs into ``--out``; they are read back and gated against
the reference for the seed's profile.  The last stdout line is one JSON
object.  ``run.py`` starts this with BLAS/OpenMP threads pinned to 1.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def repetition(workload: workloads.Workload, seed: int, trace: bool, out_dir: Path,
               reference: Path | None) -> dict:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import vpfp
    from vpfp import harness

    if not Path(vpfp.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"vpfp imported from {vpfp.__file__}, not from {src}")
    cfg = workload.config(harness, seed)
    sweep_cfg = harness.SweepConfig.from_dict(cfg, out_dir=out_dir)
    setup_s = time.perf_counter() - T_START

    tracer = tracing.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        t0 = time.perf_counter()
        workload.call(harness, sweep_cfg, out_dir)
        wall_s = time.perf_counter() - t0
    finally:
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = workload.read_outputs(out_dir)
    if reference is None:
        reference = workloads.reference_path(workload.name, cfg["sweep"]["profile_mode"])
    problems = workloads.gate(workload, outputs, json.loads(reference.read_text()))
    result = {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
        "problems": problems,
        "shape": workload.shape(cfg),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        result["trace"] = tracing.layer_samples(tracer)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--reference", type=Path, default=None,
                        help="reference file to gate against (default: the seed's)")
    args = parser.parse_args(argv)
    try:
        result = repetition(workloads.WORKLOADS[args.workload], args.seed,
                            bool(args.trace), args.out, args.reference)
    except Exception as exc:  # noqa: BLE001 - a failed repetition is reported, not raised
        traceback.print_exc()
        result = {"error": f"{type(exc).__name__}: {exc}"}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
