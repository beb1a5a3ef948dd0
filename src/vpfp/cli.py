"""Command-line interface: run, sweep, report.

Exit codes: 0 success, 1 run failure, 2 configuration error.  A run
failure (a ValueError, RuntimeError or ArithmeticError, such as an
OverflowError or FloatingPointError, or an OSError, such as an output
file that cannot be written) is one line on stderr.  Only this
module prints, and every command writes its files before it says a line;
a stream whose reader has gone changes no exit code.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .harness import (
    METRIC_KEYS,
    SweepConfig,
    SweepError,
    default_sweep_config,
    load_summary,
    parse_config_file,
    run_csv_name,
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
    parser.add_argument("--quiet", action="store_true", help="suppress output")
    # --quiet is also accepted after the command; SUPPRESS keeps the value
    # given before it when it is not repeated
    quiet = argparse.ArgumentParser(add_help=False)
    quiet.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                       help="suppress output")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", parents=[quiet], help="single kinetic run from config")
    sub.add_parser("sweep", parents=[quiet], help="full epsilon sweep")
    sub.add_parser("report", parents=[quiet], help="render a sweep summary")
    return parser


def _sweep_config(args) -> SweepConfig:
    """The sweep config of --config, or the built-in one.  The output
    directory is made once the config is valid: an --out that cannot be a
    directory is a configuration error, raised before any run."""
    cfg = default_sweep_config() if args.config is None else parse_config_file(args.config)
    sweep_cfg = SweepConfig.from_dict(cfg, out_dir=args.out)
    try:
        args.out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(
            f"cannot create output directory {args.out}: {exc.strerror}") from exc
    return sweep_cfg


def say(line: str, stream=None) -> None:
    """Print line to stream (stdout when None), flushed; once the stream's
    reader has gone, drop the rest."""
    stream = sys.stdout if stream is None else stream
    try:
        print(line, file=stream, flush=True)
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, stream.fileno())
        os.close(null)


def cmd_run(args, say) -> int:
    sweep_cfg = _sweep_config(args)
    eps = sweep_cfg.template.epsilon
    csv_path = args.out / run_csv_name(eps)
    reports = run_single(sweep_cfg, eps, csv_path=csv_path)
    say(f"vpfp run complete: {len(reports)} samples, energy CSV at {csv_path}")
    return EXIT_OK


def cmd_sweep(args, say) -> int:
    sweep_cfg = _sweep_config(args)
    try:
        result, failure = run_sweep(sweep_cfg), None
    except SweepError as exc:
        result, failure = exc.partial, exc
    for rec in result.per_epsilon:
        say(f"eps = {rec['epsilon']:g}: final E_k = {rec['final_E_k']:.6e}")
    if failure is not None:
        say(f"sweep failed: {failure}")
        return EXIT_RUN_FAILURE
    say(f"sweep complete: {len(result.per_epsilon)} runs in {result.timings['total_s']:.2f} s, "
        f"summary at {args.out}/summary.json")
    return EXIT_OK


def cmd_report(args, say) -> int:
    summary = load_summary(args.out)
    header = ["epsilon"] + list(METRIC_KEYS)
    csv_path = Path(args.out) / "metrics.csv"
    lines = [",".join(header)]
    for rec in summary["per_epsilon"]:
        lines.append(",".join([f"{rec['epsilon']:.17g}"]
                              + [f"{rec[key]:.17g}" for key in METRIC_KEYS]))
    csv_path.write_text("\n".join(lines) + "\n")
    say(f"sweep {summary['config_hash']}")
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
    say(f"metrics CSV at {csv_path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    handlers = {"run": cmd_run, "sweep": cmd_sweep, "report": cmd_report}
    try:
        return handlers[args.command](args, (lambda line: None) if args.quiet else say)
    except ConfigurationError as exc:
        say(f"configuration error: {exc}", sys.stderr)
        return EXIT_CONFIG_ERROR
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        say(f"run failed: {exc}", sys.stderr)
        return EXIT_RUN_FAILURE


if __name__ == "__main__":
    sys.exit(main())
