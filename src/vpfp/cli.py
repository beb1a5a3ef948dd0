"""Command-line interface: run, sweep, check, report.

Exit codes: 0 success, 1 run or self-test failure, 2 configuration error.
A run failure (a ValueError, RuntimeError or ArithmeticError, such as an
OverflowError or FloatingPointError) is one line on stderr.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import checks
from .ddp import ddp_run
from .harness import (
    METRIC_KEYS,
    SweepConfig,
    SweepError,
    default_sweep_config,
    initial_profile,
    load_summary,
    parse_config_file,
    run_single,
    run_sweep,
)
from .spectral import ConfigurationError

EXIT_OK = 0
EXIT_RUN_FAILURE = 1
EXIT_CONFIG_ERROR = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vpfp",
        description="Spectral kinetic solver with drift-diffusion limit harness",
    )
    parser.add_argument("--config", type=Path, help="config file (INI sections)")
    parser.add_argument("--out", type=Path, default=Path("out"), help="output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed for random test fields")
    parser.add_argument("--quiet", action="store_true", help="suppress progress output")
    # --quiet is also accepted after the command; SUPPRESS keeps the value
    # given before it when it is not repeated
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                       help="suppress progress output")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[quiet], help="single kinetic or fluid run from config")
    sub.add_parser("sweep", parents=[quiet], help="full epsilon sweep")
    sub.add_parser("check", parents=[quiet], help="operator-level acceptance checks")
    sub.add_parser("report", parents=[quiet], help="render a sweep summary")
    return parser


def _load_config(args) -> dict:
    if args.config is None:
        return default_sweep_config()
    return parse_config_file(args.config)


def cmd_run(args) -> int:
    cfg = _load_config(args)
    say = (lambda *_: None) if args.quiet else print
    sweep_cfg = SweepConfig.from_dict(cfg, out_dir=args.out)
    if sweep_cfg.system == "ddp":
        grid = sweep_cfg.template.make_grid()
        rho0 = sweep_cfg.amplitude * initial_profile(sweep_cfg)(grid.nodes)
        traj = ddp_run(grid, rho0, sweep_cfg.ddp_dt, sweep_cfg.template.t_final,
                       sample_interval=sweep_cfg.sample_interval)
        say(f"ddp run complete: {len(traj.times)} samples to t = {traj.times[-1]:g}")
        return EXIT_OK
    eps = sweep_cfg.template.epsilon
    csv_path = args.out / f"run_eps_{eps:g}.csv"
    traj = run_single(sweep_cfg, eps, csv_path=csv_path)
    say(f"vpfp run complete: {len(traj.times)} samples, energy CSV at {csv_path}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _load_config(args)
    sweep_cfg = SweepConfig.from_dict(cfg, out_dir=args.out)
    say = (lambda *_: None) if args.quiet else print

    def progress(eps: float, seconds: float, final_e_k: float) -> None:
        print(f"eps = {eps:g}: batch done in {seconds:.2f} s, final E_k = {final_e_k:.6e}",
              flush=True)

    try:
        result = run_sweep(sweep_cfg, progress=None if args.quiet else progress)
    except SweepError as exc:
        say(f"sweep failed: {exc}")
        return EXIT_RUN_FAILURE
    say(f"sweep complete: {len(result.per_epsilon)} runs, summary at {args.out}/summary.json")
    return EXIT_OK


def cmd_check(args) -> int:
    ok = checks.run_battery(seed=args.seed, quiet=args.quiet)
    return EXIT_OK if ok else EXIT_RUN_FAILURE


def cmd_report(args) -> int:
    summary = load_summary(args.out)
    say = (lambda *_: None) if args.quiet else print
    say(f"sweep {summary['config_hash']}")
    header = ["epsilon"] + list(METRIC_KEYS)
    say("  ".join(f"{h:>22}" for h in header))
    for rec in summary["per_epsilon"]:
        row = [f"{rec['epsilon']:>22g}"] + [f"{rec[key]:>22.6e}" for key in METRIC_KEYS]
        say("  ".join(row))
    say("pairwise rates (vs epsilon, sup over sampled times):")
    for key, rates in summary["rates"].items():
        pretty = ", ".join(r if isinstance(r, str) else f"{r:.3f}" for r in rates)
        say(f"  {key}: {pretty}")
    if summary.get("incomplete"):
        say(f"incomplete runs: {summary['incomplete']}")
    csv_path = Path(args.out) / "metrics.csv"
    lines = [",".join(header)]
    for rec in summary["per_epsilon"]:
        lines.append(",".join([f"{rec['epsilon']:.17g}"]
                              + [f"{rec[key]:.17g}" for key in METRIC_KEYS]))
    csv_path.write_text("\n".join(lines) + "\n")
    say(f"metrics CSV at {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "check": cmd_check, "report": cmd_report}
    try:
        return handlers[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"run failed: {exc}", file=sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
