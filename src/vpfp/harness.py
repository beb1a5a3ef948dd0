"""Experiment orchestration: config files, the epsilon sweep, persistence.

A sweep runs the fluid reference once, builds the well-prepared initial
state once, then one kinetic run per epsilon from it, and reduces the
per-run error metrics to empirical convergence rates.  The runs go in
batches (SweepConfig.batches): the epsilons that share a fitted time step,
consecutive in epsilon order, advance in lock-step as one solver.run batch,
and each member's energy report and limit-error terms are computed at
every sample, against the fluid sample of that time, so no sampled state
is kept.  A failed batch is rerun one member at a time, which gives the
partial results of running the epsilons one after another.  All outputs
(per-run CSV time series and the JSON summary) are deterministic for a
fixed config and equal to those of one run_single per epsilon; wall-clock
timings go to a separate file so the summary stays byte-stable.
"""

from __future__ import annotations

import configparser
import hashlib
import itertools
import json
import math
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ddp import ddp_run
from .diagnostics import EnergyReport, energy_functionals, limit_error, limit_metrics
from .solver import (
    KineticState,
    SolverConfig,
    Trajectory,
    make_initial_data,
    run,
    step_schedule,
)
from .spectral import ConfigurationError

__all__ = [
    "SweepConfig",
    "SweepResult",
    "SweepError",
    "run_sweep",
    "estimate_rates_from_records",
    "parse_config_file",
    "default_sweep_config",
    "write_summary",
]

METRIC_KEYS = (
    "sup_moment_error",
    "sup_field_error",
    "pointwise_sup_error",
    "micro_time_integral",
)


def _finite(raw: str) -> float:
    """A float setting: NaN and infinities are bad values."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


# configuration schema: section -> {key: parser}
_SCHEMA = {
    "grid": {"n_x": int, "n_v": int, "length": _finite},
    "solver": {
        "epsilon": _finite,
        "t_final": _finite,
        "dt_max": _finite,
        "cfl_scale": _finite,
        "scheme": str,
        "system": str,
    },
    "sweep": {
        "epsilons": lambda s: tuple(_finite(x) for x in s.split(",")),
        "ddp_dt": _finite,
        "sample_interval": _finite,
        "amplitude": _finite,
        "profile_mode": int,
    },
    "diagnostics": {"k": int},
}

SYSTEMS = ("vpfp", "ddp")

_DEFAULTS = {
    "grid": {"n_x": 64, "n_v": 64, "length": 2.0 * math.pi},
    "solver": {
        "epsilon": 0.1,
        "t_final": 1.0,
        "dt_max": 2.5e-3,
        "cfl_scale": 0.5,
        "scheme": "imex_bdf2",
        "system": "vpfp",
    },
    "sweep": {
        "epsilons": (0.2, 0.1, 0.05, 0.025),
        "ddp_dt": 2.5e-4,
        "sample_interval": 0.05,
        "amplitude": 0.01,
        "profile_mode": 1,
    },
    "diagnostics": {"k": 2},
}


def parse_config_file(path) -> dict:
    """Flat sectioned key-value config; unknown sections or keys are errors."""
    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        with path.open() as fh:
            parser.read_file(fh)
    except OSError as exc:  # a directory, say, which ConfigParser.read would skip
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file: {exc}") from exc
    cfg = {section: dict(values) for section, values in _DEFAULTS.items()}
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigurationError(f"unknown config section [{section}]")
        for key, raw in parser.items(section):
            if key not in _SCHEMA[section]:
                raise ConfigurationError(f"unknown config key {key!r} in section [{section}]")
            try:
                cfg[section][key] = _SCHEMA[section][key](raw)
            except ValueError as exc:
                raise ConfigurationError(f"bad value for {section}.{key}: {raw!r}") from exc
    return cfg


def default_sweep_config() -> dict:
    return {section: dict(values) for section, values in _DEFAULTS.items()}


def config_text(cfg: dict) -> str:
    lines = []
    for section in sorted(cfg):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            val = cfg[section][key]
            if isinstance(val, tuple):
                val = ",".join(f"{x:g}" for x in val)
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(config_text(cfg).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepConfig:
    """Epsilon sweep: shared template, descending epsilon list, output dir.

    out_dir may be given as a str; it is kept as a Path.  system is the
    solver.system setting, which picks what the run command integrates.
    batches, derived here, splits the epsilons into the runs that advance
    together: consecutive epsilons whose fitted time steps (see
    solver.step_schedule) are equal.  The step is min(dt_max,
    cfl_scale * eps) fitted to the sample interval, monotone in eps, so
    equal steps are consecutive.
    """

    epsilons: tuple
    template: SolverConfig
    ddp_dt: float
    sample_interval: float
    amplitude: float
    profile_mode: int
    k: int
    out_dir: Path | None = None
    system: str = "vpfp"
    batches: tuple = field(init=False, compare=False)

    def __post_init__(self):
        if self.system not in SYSTEMS:
            raise ConfigurationError(
                f"unknown solver.system {self.system!r}; expected one of {SYSTEMS}"
            )
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))
        eps = self.epsilons
        if len(eps) < 2:
            raise ConfigurationError("need at least 2 epsilon values for rate estimation")
        # the comparisons are written so that NaN fails them
        if not all(0 < e <= 1 for e in eps):
            raise ConfigurationError(f"epsilons must lie in (0, 1], got {eps}")
        if not all(e1 > e2 for e1, e2 in zip(eps, eps[1:])):
            raise ConfigurationError(f"epsilons must be strictly decreasing, got {eps}")
        if not math.isfinite(self.amplitude):
            raise ConfigurationError(f"amplitude must be finite, got {self.amplitude}")
        if self.k < 1:
            raise ConfigurationError(f"diagnostics order k must be >= 1, got {self.k}")
        # the Nyquist mode n_x/2 is excluded: its odd-derivative wavenumber is
        # 0, so a Nyquist density is frozen in the kinetic run while the fluid
        # step diffuses it, and the sweep would not approach the fluid limit
        max_mode = self.template.n_x // 2 - 1
        if not 1 <= self.profile_mode <= max_mode:
            raise ConfigurationError(
                f"profile_mode must lie in [1, n_x // 2 - 1 = {max_mode}], "
                f"got {self.profile_mode}"
            )
        # fit every step now: the fluid run's, the single run's and the sweep's
        t_final = self.template.t_final
        step_schedule(t_final, self.sample_interval, self.ddp_dt)
        step_schedule(t_final, self.sample_interval, self.template.dt_nominal)
        steps = [step_schedule(t_final, self.sample_interval,
                               replace(self.template, epsilon=e).dt_nominal)[1] for e in eps]
        batches = tuple(tuple(e for e, _ in group)
                        for _, group in itertools.groupby(zip(eps, steps), key=lambda p: p[1]))
        object.__setattr__(self, "batches", batches)

    @classmethod
    def from_dict(cls, cfg: dict, out_dir=None) -> "SweepConfig":
        sw = cfg["sweep"]
        return cls(
            epsilons=tuple(sw["epsilons"]),
            template=solver_config_from_dict(cfg),
            ddp_dt=sw["ddp_dt"],
            sample_interval=sw["sample_interval"],
            amplitude=sw["amplitude"],
            profile_mode=sw["profile_mode"],
            k=cfg["diagnostics"]["k"],
            out_dir=out_dir,
            system=cfg["solver"]["system"],
        )

    def as_dict(self) -> dict:
        """The settings of this sweep as a config dict in _DEFAULTS order,
        which is what summary.json reports and config_hash hashes: the
        solver settings are the template's fields, the others self's."""
        values = {**vars(self), **vars(self.template)}
        return {section: {key: values[key] for key in keys}
                for section, keys in _DEFAULTS.items()}


def solver_config_from_dict(cfg: dict) -> SolverConfig:
    return SolverConfig(**{key: value for section in ("grid", "solver")
                           for key, value in cfg[section].items() if key != "system"})


@dataclass
class SweepResult:
    """Per-epsilon metrics, pairwise rates and provenance for one sweep."""

    config: dict
    config_hash: str
    per_epsilon: list
    rates: dict
    incomplete: list
    timings: dict


class SweepError(RuntimeError):
    """A run inside a sweep failed; partial results were persisted."""

    def __init__(self, message: str, partial: SweepResult):
        super().__init__(message)
        self.partial = partial


def initial_profile(cfg: SweepConfig):
    mode = cfg.profile_mode
    length = cfg.template.length
    return lambda x: np.cos(mode * 2.0 * np.pi * x / length)


def run_single(cfg: SweepConfig, epsilon: float, csv_path: Path | None = None) -> Trajectory:
    """One kinetic run of the sweep, with energy reports per sample."""
    solver_cfg = replace(cfg.template, epsilon=epsilon)
    grid = solver_cfg.make_grid()
    basis = solver_cfg.make_basis()
    initial = make_initial_data(grid, basis, initial_profile(cfg), amplitude=cfg.amplitude)

    reports: list[EnergyReport] = []

    def observer(state: KineticState):
        reports.append(energy_functionals(state, cfg.k, epsilon))

    traj = run(initial, solver_cfg, observers=[observer], sample_interval=cfg.sample_interval)
    traj.reports = reports
    if csv_path is not None:
        write_reports_csv(csv_path, reports)
    return traj


def write_reports_csv(path: Path, reports) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [EnergyReport.csv_header()]
    lines += [r.csv_row() for r in reports]
    path.write_text("\n".join(lines) + "\n")


def sweep_record(epsilon: float, reports, errors: dict) -> dict:
    """The summary record of one run from its energy reports and its
    limit_metrics."""
    return {
        "epsilon": epsilon,
        **{key: errors[key] for key in METRIC_KEYS},
        "final_E_k": reports[-1].E_k,
        "D_k_time_integral": float(np.trapezoid(
            [r.D_k for r in reports], [r.time for r in reports])),
    }


def _run_batch(cfg: SweepConfig, initial: KineticState, batch: tuple, ddp_traj) -> list:
    """Advance the runs of batch in lock-step; return their records and
    write their energy CSVs.  The reports and limit-error terms are taken
    per sample, so no sampled state outlives its observation."""
    reports = [[] for _ in batch]
    terms = [[] for _ in batch]
    fluid = iter(ddp_traj.states)

    def observer(members) -> None:
        ds = next(fluid)
        for eps, state, rep, term in zip(batch, members, reports, terms):
            rep.append(energy_functionals(state, cfg.k, eps))
            term.append(limit_error(state, ds, cfg.k))

    times = run(initial, replace(cfg.template, epsilon=batch[0]), observers=[observer],
                sample_interval=cfg.sample_interval, epsilons=batch, keep_states=False).times
    records = []
    for eps, rep, term in zip(batch, reports, terms):
        if cfg.out_dir is not None:
            write_reports_csv(cfg.out_dir / f"run_eps_{eps:g}.csv", rep)
        records.append(sweep_record(eps, rep, limit_metrics(times, term)))
    return records


def run_sweep(cfg: SweepConfig, progress=None) -> SweepResult:
    """Run the fluid reference and every kinetic run; assemble metrics.

    progress, if given, is called as progress(epsilon, wall_seconds,
    final_E_k) for each epsilon, in order, once its batch has finished;
    wall_seconds is the batch's.  timings gets one entry per batch,
    run_eps_<eps>[_<eps>...]_s, and one per rerun epsilon.  A failed run
    persists the partial summary (marked incomplete) and raises SweepError.
    """
    t0 = _time.perf_counter()
    timings: dict = {}
    grid = cfg.template.make_grid()
    profile = initial_profile(cfg)
    rho0_in = cfg.amplitude * profile(grid.nodes)

    td = _time.perf_counter()
    ddp_traj = ddp_run(grid, rho0_in, cfg.ddp_dt, cfg.template.t_final,
                       sample_interval=cfg.sample_interval)
    timings["ddp_reference_s"] = _time.perf_counter() - td

    per_epsilon = []

    def attempt(batch: tuple) -> Exception | None:
        """Run batch and report its epsilons; return what it raised."""
        key = "run_eps_" + "_".join(f"{eps:g}" for eps in batch) + "_s"
        tb = _time.perf_counter()
        try:
            records = _run_batch(cfg, initial, batch, ddp_traj)
        except Exception as exc:  # noqa: BLE001 - persist partial state first
            return exc
        finally:
            timings[key] = _time.perf_counter() - tb
        per_epsilon.extend(records)
        if progress is not None:
            for rec in records:
                progress(rec["epsilon"], timings[key], rec["final_E_k"])
        return None

    def first_failure(batch: tuple) -> tuple | None:
        """(epsilon, error) of the first run of batch that fails alone.
        A failed batch of several is rerun one member at a time, so the
        runs before the failing one complete, as in a sequential sweep."""
        exc = attempt(batch)
        if exc is None:
            return None
        if len(batch) == 1:
            return batch[0], exc
        for eps in batch:
            exc = attempt((eps,))
            if exc is not None:
                return eps, exc
        return None

    failed = None
    try:
        initial = make_initial_data(grid, cfg.template.make_basis(), profile,
                                    amplitude=cfg.amplitude)
    except Exception as exc:  # noqa: BLE001 - the first run fails, as it would alone
        failed = cfg.epsilons[0], exc
    else:
        for batch in cfg.batches:
            failed = first_failure(batch)
            if failed is not None:
                break
    incomplete = []
    if failed is not None:
        eps, exc = failed
        incomplete.append({"epsilon": eps, "error": f"{type(exc).__name__}: {exc}"})
    timings["total_s"] = _time.perf_counter() - t0

    config = cfg.as_dict()
    result = SweepResult(
        config=config,
        config_hash=config_hash(config),
        per_epsilon=per_epsilon,
        rates=estimate_rates_from_records(per_epsilon),
        incomplete=incomplete,
        timings=timings,
    )
    if cfg.out_dir is not None:
        write_summary(cfg.out_dir, result)
    if failed is not None:
        raise SweepError(f"sweep aborted at epsilon = {failed[0]}", result)
    return result


def estimate_rates_from_records(per_epsilon: list) -> dict:
    """Pairwise empirical rates log(err_i / err_{i+1}) / log(eps_i / eps_{i+1}).

    Underflowed errors are reported as "below floor" rather than NaN.
    """
    floor = 1e-14
    rates: dict = {}
    for key in METRIC_KEYS:
        pair_rates = []
        for rec_hi, rec_lo in zip(per_epsilon, per_epsilon[1:]):
            e_hi, e_lo = rec_hi[key], rec_lo[key]
            if e_hi < floor or e_lo < floor:
                pair_rates.append("below floor")
                continue
            pair_rates.append(
                math.log(e_hi / e_lo) / math.log(rec_hi["epsilon"] / rec_lo["epsilon"])
            )
        rates[key] = pair_rates
    return rates


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_summary(out_dir: Path, result: SweepResult) -> None:
    """summary.json is deterministic; timings.json carries wall-clock data."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": {sec: {k: list(v) if isinstance(v, tuple) else v
                         for k, v in vals.items()}
                   for sec, vals in result.config.items()},
        "config_hash": result.config_hash,
        "per_epsilon": result.per_epsilon,
        "rates": result.rates,
        "incomplete": result.incomplete,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2, default=_json_default) + "\n")
    (out_dir / "timings.json").write_text(json.dumps(result.timings, indent=2) + "\n")


def load_summary(out_dir: Path) -> dict:
    path = Path(out_dir) / "summary.json"
    if not path.exists():
        raise ConfigurationError(f"no sweep summary at {path}")
    return json.loads(path.read_text())
