"""Workload definitions and the per-repetition correctness gate.

Each workload is one call of a public harness entry point, the same call
that ``vpfp sweep`` (``run_sweep``) or ``vpfp run`` (``run_single``) makes.
The seed only picks the initial density profile (``sweep.profile_mode``),
which changes the numbers but not the amount of work.

This module imports nothing from vpfp: the worker passes the harness
module in, so set-up time covers the whole package import.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# seed -> initial profile cos(mode * x); seed 0 is the built-in sweep (mode 1)
PROFILE_MODES = (1, 2, 3)

RTOL = 1e-10
# Round-off level quantities: compared (and bounded) with an absolute floor,
# because their relative digits are noise.
ABS_FLOORS = {"mass_residual": 1e-14, "poisson_residual": 1e-8}
# Criterion 8 of the acceptance suite: each epsilon halving must shrink
# these errors by at least this factor.
RATE_FLOOR = 1.5
RATE_KEYS = ("sup_moment_error", "sup_field_error", "pointwise_sup_error")


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str  # "run_sweep" or "run_single"
    why: str
    grid: dict = field(default_factory=dict)
    solver: dict = field(default_factory=dict)

    def config(self, harness, seed: int) -> dict:
        cfg = harness.default_sweep_config()
        cfg["grid"].update(self.grid)
        cfg["solver"].update(self.solver)
        cfg["sweep"]["profile_mode"] = profile_mode(seed)
        return cfg

    def shape(self, cfg: dict) -> dict:
        eps = cfg["sweep"]["epsilons"] if self.entry == "run_sweep" else (cfg["solver"]["epsilon"],)
        return {"n_x": cfg["grid"]["n_x"], "n_v": cfg["grid"]["n_v"],
                "scheme": cfg["solver"]["scheme"], "epsilons": list(eps),
                "t_final": cfg["solver"]["t_final"],
                "profile_mode": cfg["sweep"]["profile_mode"]}

    def call(self, harness, sweep_cfg, out_dir: Path):
        """The timed entry-point call; looked up on the module at call time."""
        if self.entry == "run_sweep":
            return harness.run_sweep(sweep_cfg)
        return harness.run_single(sweep_cfg, sweep_cfg.template.epsilon,
                                  csv_path=out_dir / "run.csv")

    def read_outputs(self, out_dir: Path) -> dict:
        """What the run wrote: the sweep summary, or the energy CSV columns."""
        if self.entry == "run_sweep":
            summary = json.loads((out_dir / "summary.json").read_text())
            return {key: summary[key] for key in ("per_epsilon", "rates", "incomplete")}
        with open(out_dir / "run.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        return {"columns": {name: [float(r[i]) for r in rows[1:]]
                            for i, name in enumerate(rows[0])}}


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sweep_default", "run_sweep",
                 "the built-in eps-sweep users run; the only DDP work; most "
                 "per-step fixed overhead"),
        Workload("kinetic_128", "run_single",
                 "128x128 BDF2 run dominated by the dense per-mode implicit "
                 "solve and its lazily built inverses",
                 grid={"n_x": 128, "n_v": 128},
                 solver={"scheme": "imex_bdf2", "epsilon": 0.05}),
        Workload("kinetic_wide", "run_single",
                 "1024x16 IMEX-Euler run, same unknowns as kinetic_128 but tiny "
                 "implicit blocks: FFTs, field coupling and diagnostics dominate",
                 grid={"n_x": 1024, "n_v": 16},
                 solver={"scheme": "imex_euler", "epsilon": 0.05}),
    )
}


def profile_mode(seed: int) -> int:
    return PROFILE_MODES[seed % len(PROFILE_MODES)]


def reference_path(workload: str, mode: int) -> Path:
    return REFERENCE_DIR / f"{workload}_mode{mode}.json"


# ---------------------------------------------------------------------------
# correctness gate

def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for key in sorted(obj):
            _flatten(f"{prefix}.{key}" if prefix else key, obj[key], out)
    elif isinstance(obj, list):
        for i, val in enumerate(obj):
            _flatten(f"{prefix}[{i}]", val, out)
    else:
        out[prefix] = obj


def _floor_for(path: str) -> float:
    for key, floor in ABS_FLOORS.items():
        if key in path:
            return floor
    return 0.0


def compare(outputs: dict, reference: dict, rtol: float = RTOL) -> list[str]:
    """Every leaf of ``outputs`` must match ``reference`` to rtol (plus floor)."""
    got, want = {}, {}
    _flatten("", outputs, got)
    _flatten("", reference, want)
    problems = []
    if got.keys() != want.keys():
        extra = sorted(got.keys() - want.keys())[:3]
        missing = sorted(want.keys() - got.keys())[:3]
        problems.append(f"output layout differs from reference (extra {extra}, missing {missing})")
    for path in sorted(got.keys() & want.keys()):
        a, b = got[path], want[path]
        if isinstance(b, (int, float)) and not isinstance(b, bool) and isinstance(a, (int, float)):
            if abs(a - b) > rtol * abs(b) + _floor_for(path):
                problems.append(f"{path} = {a!r}, reference {b!r}")
        elif a != b:
            problems.append(f"{path} = {a!r}, reference {b!r}")
    return problems


def invariants(workload: Workload, outputs: dict) -> list[str]:
    """Checks that hold for every seed, independent of the reference."""
    leaves: dict = {}
    _flatten("", outputs, leaves)
    problems = [f"{path} is not finite" for path, val in leaves.items()
                if isinstance(val, float) and not math.isfinite(val)]
    if workload.entry == "run_sweep":
        if outputs["incomplete"]:
            problems.append(f"sweep incomplete: {outputs['incomplete']}")
        for key in RATE_KEYS:
            errs = [rec[key] for rec in outputs["per_epsilon"]]
            for hi, lo in zip(errs, errs[1:]):
                if not hi >= RATE_FLOOR * lo:
                    problems.append(f"{key} shrinks by {hi / lo:.3g} < {RATE_FLOOR} per halving")
    else:
        for key, floor in ABS_FLOORS.items():
            worst = max(outputs["columns"][key])
            if not worst <= floor:
                problems.append(f"{key} reaches {worst:.3e} > {floor:g}")
    return problems


def gate(workload: Workload, outputs: dict, reference: dict) -> list[str]:
    return invariants(workload, outputs) + compare(outputs, reference)
