"""Experiment orchestration: config files, the epsilon sweep, persistence.

A sweep builds its initial density once (initial_density), then the
well-prepared kinetic state from it, and only if that succeeds runs the
fluid reference from the same density; a fault in either fails the first
epsilon.  It then advances every epsilon from the kinetic state in
lock-step as one solver.run batch: every run steps at dt_max fitted to
the sample interval, whatever its epsilon, and the fluid reference at a
FLUID_SUBSTEPS-th of that step.  At each sample one call of each
diagnostic gives every member's energy report and limit-error terms
against the fluid sample of that time, so no kinetic sample is kept, and
sweep_record reduces them to each run's record.  A failed batch is rerun
one member at a time, which gives the partial results of running the
epsilons one after another; an OSError (an unwritable file) is raised at
once.  The per-run records reduce to empirical convergence rates.  All
outputs (per-run CSV time series and the JSON summary) are deterministic
for a fixed config and equal to those of one run_single per epsilon;
wall-clock timings go to a separate file so the summary stays
byte-stable.  Nothing here prints: run_sweep returns its results.
"""

from __future__ import annotations

import json
import math
import time as _time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .ddp import ddp_run
from .diagnostics import EnergyReport, energy_functionals, limit_error
from .solver import (KineticState, SolverConfig, coerce_settings, make_initial_data, run,
                     step_schedule)
from .spectral import ConfigurationError, sobolev_weights

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

FLUID_SUBSTEPS = 10  # fluid reference steps per kinetic step of a sweep


def _finite(raw: str) -> float:
    """A float setting: NaN and infinities are bad values."""
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"{raw!r} is not finite")
    return value


# configuration schema: section -> {key: parser}, in the order summary.json
# reports; the defaults are the SolverConfig and SweepConfig field defaults
_SCHEMA = {
    "grid": {"n_x": int, "n_v": int},
    "solver": {
        "epsilon": _finite,
        "t_final": _finite,
        "dt_max": _finite,
        "scheme": str,
    },
    "sweep": {
        "epsilons": lambda s: tuple(_finite(x) for x in s.split(",")),
        "sample_interval": _finite,
        "amplitude": _finite,
        "profile_mode": int,
    },
    "diagnostics": {"k": int},
}

def parse_config_file(path) -> dict:
    """Flat sectioned key-value config; unknown sections or keys are errors."""
    import configparser  # here, not at the top: only INI input needs it

    path = Path(path)
    if not path.exists():
        raise ConfigurationError(f"config file not found: {path}")
    # values are taken verbatim, so a '%' is a bad value, not a traceback;
    # no header can name the empty default section, so [DEFAULT] is an
    # unknown section like any other instead of keys that leak everywhere
    parser = configparser.ConfigParser(interpolation=None, default_section="")
    try:
        with path.open(encoding="utf-8") as fh:
            parser.read_file(fh)
    except OSError as exc:  # a directory, say, which ConfigParser.read would skip
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file: {exc}") from exc
    cfg = default_sweep_config()
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
    """The built-in config: the settings of SweepConfig()."""
    return SweepConfig().as_dict()


def config_text(cfg: dict) -> str:
    lines = []
    for section in sorted(cfg):
        lines.append(f"[{section}]")
        for key in sorted(cfg[section]):
            val = cfg[section][key]
            if isinstance(val, tuple):
                val = ",".join(map(str, val))
            lines.append(f"{key} = {val}")
    return "\n".join(lines) + "\n"


def config_hash(cfg: dict) -> str:
    """The first 16 hex digits of the SHA-256 of config_text(cfg).

    The hash comes from CPython's built-in SHA-256 module, the one hashlib
    itself falls back to, so a sweep never maps OpenSSL (a few MB of its
    peak memory) for 16 hex digits; hashlib is the fallback for an
    interpreter built without that module.
    """
    try:
        from _sha2 import sha256  # Python 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            import hashlib
            sha256 = hashlib.sha256
    return sha256(config_text(cfg).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class SweepConfig:
    """Epsilon sweep: shared template, descending epsilon list, output dir.

    The field defaults, with the template's, are the built-in config.
    out_dir may be given as a str; it is kept as a Path.
    """

    epsilons: tuple = (0.2, 0.1, 0.05, 0.025)
    template: SolverConfig = field(default_factory=SolverConfig)
    sample_interval: float = 0.05
    amplitude: float = 0.01
    profile_mode: int = 1
    k: int = 2
    out_dir: Path | None = None

    def __post_init__(self):
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))
        coerce_settings(self, ("amplitude", "sample_interval"), ("profile_mode", "k"))
        object.__setattr__(self, "epsilons", tuple(map(float, self.epsilons)))
        eps = self.epsilons
        if len(eps) < 2:
            raise ConfigurationError("need at least 2 epsilon values for rate estimation")
        for e in eps:
            replace(self.template, epsilon=e)  # each run's config must be valid
        if not all(e1 > e2 for e1, e2 in zip(eps, eps[1:])):
            raise ConfigurationError(f"epsilons must be strictly decreasing, got {eps}")
        for e1, e2 in zip(eps, eps[1:]):  # descending, so equal names are adjacent
            name = run_csv_name(e1)
            if name == run_csv_name(e2):
                raise ConfigurationError(f"epsilons {e1} and {e2} both write {name}: sweep "
                                         f"epsilons must differ in their first six "
                                         f"significant digits")
        if not math.isfinite(self.amplitude):
            raise ConfigurationError(f"amplitude must be finite, got {self.amplitude}")
        if self.k < 1:
            raise ConfigurationError(f"diagnostics order k must be >= 1, got {self.k}")
        sobolev_weights(self.template.n_x, self.k)  # raises on overflow
        # the Nyquist mode n_x/2 is excluded: its odd-derivative wavenumber is
        # 0, so a Nyquist density is frozen in the kinetic run while the fluid
        # step diffuses it, and the sweep would not approach the fluid limit
        max_mode = self.template.n_x // 2 - 1
        if not 1 <= self.profile_mode <= max_mode:
            raise ConfigurationError(
                f"profile_mode must lie in [1, n_x // 2 - 1 = {max_mode}], "
                f"got {self.profile_mode}"
            )
        # fit every step now: the kinetic runs' one step, then the fluid run's
        step_schedule(self.template.t_final, self.sample_interval, self.fluid_dt)

    @property
    def fluid_dt(self) -> float:
        """The kinetic runs' fitted step (dt_max if t_final = 0 fits none)
        over FLUID_SUBSTEPS: the fluid reference's step."""
        t = self.template
        return (step_schedule(t.t_final, self.sample_interval, t.dt_max)[1]
                or t.dt_max) / FLUID_SUBSTEPS

    @classmethod
    def from_dict(cls, cfg: dict, out_dir=None) -> "SweepConfig":
        return cls(template=SolverConfig(**cfg["grid"], **cfg["solver"]), **cfg["sweep"],
                   **cfg["diagnostics"], out_dir=out_dir)

    def as_dict(self) -> dict:
        """The settings of this sweep as a config dict in _SCHEMA order,
        which is what summary.json reports and config_hash hashes: the
        solver settings are the template's fields, the others self's."""
        values = {**vars(self), **vars(self.template)}
        return {section: {key: values[key] for key in keys}
                for section, keys in _SCHEMA.items()}


def run_csv_name(epsilon: float) -> str:
    """The energy CSV of the run at epsilon, named by its first six
    significant digits."""
    return f"run_eps_{epsilon:g}.csv"


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


def initial_density(cfg: SweepConfig) -> np.ndarray:
    """The shifted density that the kinetic and the fluid runs of cfg start
    from, amplitude * cos(mode x) on the grid nodes."""
    return cfg.amplitude * np.cos(cfg.profile_mode * cfg.template.make_grid().nodes)


def run_single(cfg: SweepConfig, epsilon: float,
               csv_path: Path | None = None) -> list[EnergyReport]:
    """One kinetic run of the sweep, observed as a batch of one: its energy
    report at each sample, written to csv_path when given.  No sampled
    state is kept."""
    solver_cfg = replace(cfg.template, epsilon=epsilon)
    initial = make_initial_data(solver_cfg.make_grid(), solver_cfg.make_basis(),
                                initial_density(cfg))

    reports: list[EnergyReport] = []
    run(initial, solver_cfg, lambda state: reports.extend(
        energy_functionals(state, cfg.k, (epsilon,))), sample_interval=cfg.sample_interval)
    if csv_path is not None:
        write_reports_csv(csv_path, reports)
    return reports


def write_reports_csv(path: Path, reports) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [",".join(EnergyReport._fields)]
    lines += [r.csv_row() for r in reports]
    path.write_text("\n".join(lines) + "\n")


def sweep_record(epsilon: float, reports, terms) -> dict:
    """The summary record of one run from its energy report and its
    limit_error terms at each sample: the sup in time of the moment, field
    and pointwise errors, and the trapezoid time integrals of the micro
    norm and of D_k over the reports' sample times."""
    moment, field_error, micro, point = zip(*terms)
    times = [r.time for r in reports]
    return {
        "epsilon": epsilon,
        "sup_moment_error": float(np.max(moment)),
        "sup_field_error": float(np.max(field_error)),
        "pointwise_sup_error": float(np.max(point)),
        "micro_time_integral": float(np.trapezoid(micro, times)),
        "final_E_k": reports[-1].E_k,
        "D_k_time_integral": float(np.trapezoid([r.D_k for r in reports], times)),
    }


def _run_batch(cfg: SweepConfig, initial: KineticState, batch: tuple, fluid_states) -> list:
    """Advance the runs of batch in lock-step; return their records and
    write their energy CSVs.  The reports and limit-error terms are taken
    per sample, against the fluid state of that sample, so no kinetic
    state outlives its observation.  Each sample is one batch state, so
    each diagnostic runs once per sample, for every member at once."""
    reports, terms = [], []  # per sample: one entry per member
    fluid = iter(fluid_states)

    def observer(state) -> None:
        reports.append(energy_functionals(state, cfg.k, batch))
        terms.append(limit_error(state, next(fluid), cfg.k))

    run(initial, cfg.template, observer, sample_interval=cfg.sample_interval, epsilons=batch)
    records = []
    for eps, rep, term in zip(batch, zip(*reports), zip(*terms)):
        if cfg.out_dir is not None:
            write_reports_csv(cfg.out_dir / run_csv_name(eps), rep)
        records.append(sweep_record(eps, rep, term))
    return records


def run_sweep(cfg: SweepConfig) -> SweepResult:
    """Run the fluid reference and every kinetic run; assemble metrics.

    The set-up builds the initial kinetic state and then runs the fluid
    reference; a fault in either fails the first epsilon, as it would
    fail that run alone, and leaves timings without ddp_reference_s.
    timings gets one entry for the batch of every epsilon,
    run_eps_<eps>_<eps>..._s, and one per rerun epsilon.  Nothing is
    printed: the result holds every record.  A failed run persists the
    partial summary (marked incomplete) and raises SweepError, which
    carries it and names its failed run.
    """
    t0 = _time.perf_counter()
    timings: dict = {}
    grid = cfg.template.make_grid()
    density = initial_density(cfg)
    per_epsilon, failed = [], None
    try:
        initial = make_initial_data(grid, cfg.template.make_basis(), density)
        td = _time.perf_counter()
        fluid_states = ddp_run(grid, density, cfg.fluid_dt, cfg.template.t_final,
                               sample_interval=cfg.sample_interval)
        timings["ddp_reference_s"] = _time.perf_counter() - td
    except Exception as exc:  # noqa: BLE001 - the first run fails, as it would alone
        failed = cfg.epsilons[0], exc
    else:
        # the batch of every epsilon, and if it fails each member alone, so
        # the runs before the first that fails alone complete, as in a
        # sequential sweep
        for batch in (cfg.epsilons, *((eps,) for eps in cfg.epsilons)):
            key = "run_eps_" + "_".join(f"{eps:g}" for eps in batch) + "_s"
            tb, failed = _time.perf_counter(), None
            try:
                per_epsilon.extend(_run_batch(cfg, initial, batch, fluid_states))
            except OSError:  # an unwritable output fails no run, so rerun nothing
                raise
            except Exception as exc:  # noqa: BLE001 - persist partial state first
                failed = batch[0], exc
            finally:
                timings[key] = _time.perf_counter() - tb
            if (failed is None) == (batch is cfg.epsilons):
                break  # the whole batch ran, or a member failed alone
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
        raise SweepError(f"sweep aborted at epsilon = {eps}: {incomplete[0]['error']}", result)
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


def write_summary(out_dir: Path, result: SweepResult) -> None:
    """summary.json is deterministic; timings.json carries wall-clock data."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    summary = {
        "config": result.config,
        "config_hash": result.config_hash,
        "per_epsilon": result.per_epsilon,
        "rates": result.rates,
        "incomplete": result.incomplete,
    }
    (out_dir / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    (out_dir / "timings.json").write_text(json.dumps(result.timings, indent=2) + "\n")


def _is_number(value) -> bool:
    """A JSON number: true and false parse as bool, a subclass of int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_summary(out_dir: Path) -> dict:
    """The summary.json in out_dir, with every key and value that report
    reads: per_epsilon a list of records with a number for epsilon and
    each METRIC_KEYS entry, and rates an object of lists."""
    path = Path(out_dir) / "summary.json"
    if not path.exists():
        raise ConfigurationError(f"no sweep summary at {path}")
    try:
        summary = json.loads(path.read_text())
    except OSError as exc:  # a directory, say
        raise ConfigurationError(f"cannot read sweep summary {path}: {exc.strerror}") from exc
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ConfigurationError(f"sweep summary {path} is not JSON: {exc}") from exc
    for key in ("config_hash", "per_epsilon", "rates"):
        if not isinstance(summary, dict) or key not in summary:
            raise ConfigurationError(f"sweep summary {path} has no {key!r}")
    if not isinstance(summary["per_epsilon"], list):
        raise ConfigurationError(f"sweep summary {path} has a 'per_epsilon' that is not a list")
    for i, rec in enumerate(summary["per_epsilon"]):
        for key in ("epsilon",) + METRIC_KEYS:
            if not (isinstance(rec, dict) and _is_number(rec.get(key))):
                raise ConfigurationError(
                    f"sweep summary {path} has no number {key!r} in per_epsilon[{i}]")
    if not isinstance(summary["rates"], dict):
        raise ConfigurationError(f"sweep summary {path} has a 'rates' that is not an object")
    for key, rates in summary["rates"].items():
        if not (isinstance(rates, list)
                and all(isinstance(r, str) or _is_number(r) for r in rates)):
            raise ConfigurationError(
                f"sweep summary {path} has rates[{key!r}] that is not a list of numbers")
    return summary
