"""Sweep orchestration and CLI: config parsing, rate arithmetic, outputs,
exit codes, and byte-level determinism of the persisted artifacts."""

import configparser
import gc
import importlib.util
import json
import os
import subprocess
import sys
import warnings
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from vpfp.cli import EXIT_CONFIG_ERROR, EXIT_OK, EXIT_RUN_FAILURE, main
from vpfp.ddp import ddp_run
from vpfp.diagnostics import energy_functionals, limit_error
from vpfp.harness import (
    _SCHEMA,
    METRIC_KEYS,
    SweepConfig,
    SweepError,
    config_hash,
    default_sweep_config,
    estimate_rates_from_records,
    initial_density,
    load_summary,
    parse_config_file,
    run_single,
    run_sweep,
    sweep_record,
    write_reports_csv,
    write_summary,
)
from vpfp.solver import ConservationError, SolverConfig, make_initial_data, run
from vpfp.spectral import ConfigurationError

SMALL_INI = """
[grid]
n_x = 32
n_v = 16

[solver]
t_final = 0.2
dt_max = 2e-3
scheme = imex_bdf2

[sweep]
epsilons = 0.2,0.1
sample_interval = 0.05
amplitude = 0.01

[diagnostics]
k = 1
"""


# built-in settings but for a coarse grid, a large amplitude and steps of
# 10: the kinetic state is no longer finite at t = 130 (at t = 325 with
# dt_max = 25), and a sweep's fluid reference at t = 1e10 and dt_max = 1e8
# turns non-positive, then is no longer finite at t = 2.8e8
BLOW_UP_INI = """
[grid]
n_x = 16
n_v = 8

[solver]
t_final = 1000
dt_max = 10

[sweep]
sample_interval = 1000
amplitude = 0.9
"""


def small_ini_with(tmp_path, base=SMALL_INI, **settings):
    """base (SMALL_INI by default) with section__key=value settings
    replaced or added, written verbatim."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(base)
    for name, value in settings.items():
        section, key = name.split("__")
        parser[section][key] = value
    path = tmp_path / "case.ini"
    with path.open("w") as fh:
        parser.write(fh)
    return path


def fluid_reference(cfg):
    return ddp_run(cfg.template.make_grid(), initial_density(cfg), cfg.fluid_dt,
                   cfg.template.t_final, sample_interval=cfg.sample_interval)


def one_run_record(cfg, epsilon, fluid, csv_path=None):
    """The summary record of epsilon from a run of its own, whose observer
    takes the energy report and the limit-error terms against the fluid
    reference states at each sample; the energy CSV goes to csv_path if given."""
    solver_cfg = replace(cfg.template, epsilon=epsilon)
    initial = make_initial_data(solver_cfg.make_grid(), solver_cfg.make_basis(),
                                initial_density(cfg))
    reports, terms = [], []

    def observe(state):
        reports.extend(energy_functionals(state, cfg.k, (epsilon,)))
        terms.extend(limit_error(state, fluid[len(terms)], cfg.k))

    run(initial, solver_cfg, observe, sample_interval=cfg.sample_interval)
    assert len(terms) == len(fluid)
    if csv_path is not None:
        write_reports_csv(csv_path, reports)
    return sweep_record(epsilon, reports, terms)


# SMALL_INI settings at the built-in config's values
DEFAULT_GRID_AND_STEP = {"grid__n_x": "64", "grid__n_v": "64", "solver__dt_max": "2.5e-3"}

# three epsilons, which step at dt_max as one batch
THREE_EPS = {"sweep__epsilons": "0.2,0.1,0.05"}


@pytest.fixture
def small_ini(tmp_path):
    path = tmp_path / "sweep.ini"
    path.write_text(SMALL_INI)
    return path


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    """One small sweep shared by the output-inspection tests."""
    out = tmp_path_factory.mktemp("sweep_out")
    ini = out / "sweep.ini"
    ini.write_text(SMALL_INI)
    cfg = SweepConfig.from_dict(parse_config_file(ini), out_dir=out / "run")
    result = run_sweep(cfg)
    return cfg, result, out / "run"


class TestConfigParsing:
    def test_defaults_complete(self):
        cfg = default_sweep_config()
        assert set(cfg) == {"grid", "solver", "sweep", "diagnostics"}
        SweepConfig.from_dict(cfg)  # must construct without error
        # one source for the built-in config: the field defaults
        assert cfg == SweepConfig().as_dict()
        assert SweepConfig().template == SolverConfig()

    def test_file_overrides_defaults(self, small_ini):
        cfg = parse_config_file(small_ini)
        assert cfg["grid"]["n_x"] == 32
        assert cfg["sweep"]["epsilons"] == (0.2, 0.1)
        assert cfg["solver"]["epsilon"] == 0.1  # untouched default

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[plotting]\nstyle = fancy\n")
        with pytest.raises(ConfigurationError, match="unknown config section"):
            parse_config_file(path)

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nn_z = 8\n")
        with pytest.raises(ConfigurationError, match="unknown config key"):
            parse_config_file(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[grid]\nn_x = many\n")
        with pytest.raises(ConfigurationError, match="bad value"):
            parse_config_file(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="not found"):
            parse_config_file(tmp_path / "absent.ini")

    def test_solver_fields_are_config_keys(self):
        # every solver setting can be given in a config file, and reported
        keys = _SCHEMA["grid"].keys() | _SCHEMA["solver"].keys()
        assert {f.name for f in fields(SolverConfig)} == keys
        # and so can every other sweep setting
        keys = _SCHEMA["sweep"].keys() | _SCHEMA["diagnostics"].keys()
        assert {f.name for f in fields(SweepConfig)} - {"template", "out_dir"} == keys

    def test_hash_stable_and_sensitive(self, small_ini):
        cfg = parse_config_file(small_ini)
        h1 = config_hash(cfg)
        assert h1 == config_hash(parse_config_file(small_ini))
        cfg["grid"]["n_x"] = 64
        assert config_hash(cfg) != h1

        def hash_with(section, key, value):
            return config_hash({**cfg, section: {**cfg[section], key: value}})

        # every digit of an epsilon counts, in the list as in the scalar
        assert (hash_with("sweep", "epsilons", (0.1234567, 0.1))
                != hash_with("sweep", "epsilons", (0.1234568, 0.1)))
        assert (hash_with("solver", "epsilon", 0.1234567)
                != hash_with("solver", "epsilon", 0.1234568))


class TestSweepConfig:
    def test_epsilons_must_descend(self, small_ini):
        cfg = parse_config_file(small_ini)
        cfg["sweep"]["epsilons"] = (0.1, 0.2)
        with pytest.raises(ConfigurationError, match="strictly decreasing"):
            SweepConfig.from_dict(cfg)

    def test_epsilons_range(self, small_ini):
        cfg = parse_config_file(small_ini)
        cfg["sweep"]["epsilons"] = (1.5, 0.1)
        with pytest.raises(ConfigurationError, match="epsilon must lie in"):
            SweepConfig.from_dict(cfg)

    def test_needs_two_epsilons(self, small_ini):
        cfg = parse_config_file(small_ini)
        cfg["sweep"]["epsilons"] = (0.1,)
        with pytest.raises(ConfigurationError, match="at least 2"):
            SweepConfig.from_dict(cfg)

    def test_int_settings_give_the_float_config(self):
        # 1 and 1.0 compare equal, and now write the same config and hash,
        # whether the setting is a float or an int one
        def make(number):
            template = SolverConfig(epsilon=number(1), t_final=number(1), n_x=number(32),
                                    n_v=number(16), dt_max=number(1), scheme="imex_euler")
            return SweepConfig(epsilons=(number(1), 0.5), template=template,
                               sample_interval=number(1), amplitude=number(1),
                               profile_mode=number(1), k=number(1))

        ints = make(int)
        for number in (float, np.int64, np.float64):
            floats = make(number)
            assert repr(ints.as_dict()) == repr(floats.as_dict())
            assert config_hash(ints.as_dict()) == config_hash(floats.as_dict())
        for cfg in (SweepConfig(profile_mode=1.0), SweepConfig(k=2.0),
                    SweepConfig(template=SolverConfig(n_v=64.0)),
                    SweepConfig(template=SolverConfig(n_x=64.0))):
            assert config_hash(cfg.as_dict()) == "b2352e181e4893f9"


    def test_diagnostics_order(self, small_ini):
        cfg = parse_config_file(small_ini)
        cfg["diagnostics"]["k"] = 0
        with pytest.raises(ConfigurationError, match="k must be >= 1"):
            SweepConfig.from_dict(cfg)

    @pytest.mark.parametrize("mode", [0, 16, 17])
    def test_profile_mode_range(self, small_ini, mode):
        # 16 = n_x/2 is the Nyquist mode, frozen in the kinetic run
        cfg = parse_config_file(small_ini)  # n_x = 32
        cfg["sweep"]["profile_mode"] = mode
        with pytest.raises(ConfigurationError,
                           match=rf"\[1, n_x // 2 - 1 = 15\], got {mode}$"):
            SweepConfig.from_dict(cfg)

    def test_highest_profile_mode_accepted(self, small_ini):
        cfg = parse_config_file(small_ini)
        cfg["sweep"]["profile_mode"] = 15
        assert SweepConfig.from_dict(cfg).profile_mode == 15

    @pytest.mark.parametrize("section, key, value, message", [
        ("sweep", "epsilons", (0.2, float("nan")), "epsilon must lie in"),
        ("sweep", "epsilons", (float("nan"), 0.2), "epsilon must lie in"),
        ("sweep", "amplitude", float("nan"), "amplitude must be finite"),
        ("sweep", "amplitude", float("inf"), "amplitude must be finite"),
        ("sweep", "sample_interval", float("nan"), "sample_interval must be positive"),
        ("sweep", "sample_interval", float("inf"),
         "sample_interval must be positive and finite, got inf"),
        ("solver", "t_final", float("nan"), "t_final must be finite"),
        ("solver", "t_final", float("inf"), "t_final must be finite"),
        ("solver", "dt_max", float("nan"), "dt_max must be positive"),
        ("solver", "dt_max", 1e-320, "is too small for the sample interval"),
        ("grid", "n_x", 64.5, "n_x must be an integer, got 64.5"),
        ("grid", "n_v", float("nan"), "n_v must be an integer, got nan"),
        ("sweep", "profile_mode", 1.5, "profile_mode must be an integer, got 1.5"),
        ("diagnostics", "k", 2.5, "k must be an integer, got 2.5"),
        ("diagnostics", "k", float("inf"), "k must be an integer, got inf"),
    ])
    def test_non_finite_setting_rejected(self, small_ini, section, key, value, message):
        cfg = parse_config_file(small_ini)
        cfg[section][key] = value
        with pytest.raises(ConfigurationError, match=message):
            SweepConfig.from_dict(cfg)

    def test_infinite_sample_interval_rejected_at_zero_time(self):
        # a run to t = 0 takes no step, but its settings obey the same rule
        with pytest.raises(ConfigurationError,
                           match="sample_interval must be positive and finite, got inf"):
            SweepConfig(sample_interval=float("inf"), template=SolverConfig(t_final=0.0))


class TestRateArithmetic:
    def test_known_pair(self):
        records = [
            {"epsilon": 0.4, **{k: 0.4 for k in METRIC_KEYS}},
            {"epsilon": 0.2, **{k: 0.2 for k in METRIC_KEYS}},
        ]
        rates = estimate_rates_from_records(records)
        for key in METRIC_KEYS:
            assert rates[key] == [pytest.approx(1.0)]

    def test_quadratic_sequence(self):
        records = [{"epsilon": e, **{k: e**2 for k in METRIC_KEYS}}
                   for e in (0.4, 0.2, 0.1)]
        rates = estimate_rates_from_records(records)
        for key in METRIC_KEYS:
            assert rates[key] == [pytest.approx(2.0), pytest.approx(2.0)]

    def test_floor_labelling(self):
        records = [
            {"epsilon": 0.4, **{k: 1e-16 for k in METRIC_KEYS}},
            {"epsilon": 0.2, **{k: 1e-16 for k in METRIC_KEYS}},
        ]
        rates = estimate_rates_from_records(records)
        for key in METRIC_KEYS:
            assert rates[key] == ["below floor"]


class TestSweepOutputs:
    def test_per_epsilon_records(self, sweep_outputs):
        cfg, result, out_dir = sweep_outputs
        assert [r["epsilon"] for r in result.per_epsilon] == [0.2, 0.1]
        for rec in result.per_epsilon:
            for key in METRIC_KEYS + ("final_E_k", "D_k_time_integral"):
                assert np.isfinite(rec[key]) and rec[key] >= 0.0
        assert result.incomplete == []

    def test_errors_shrink_with_epsilon(self, sweep_outputs):
        _, result, _ = sweep_outputs
        hi, lo = result.per_epsilon
        for key in METRIC_KEYS:
            assert lo[key] < hi[key]

    def test_summary_file_round_trip(self, sweep_outputs):
        cfg, result, out_dir = sweep_outputs
        summary = load_summary(out_dir)
        assert summary["config_hash"] == result.config_hash
        assert len(summary["per_epsilon"]) == 2
        assert set(summary["rates"]) == set(METRIC_KEYS)

    def test_summary_has_no_timings(self, sweep_outputs):
        _, result, out_dir = sweep_outputs
        text = (out_dir / "summary.json").read_text()
        assert "total_s" not in text
        timings = json.loads((out_dir / "timings.json").read_text())
        assert timings["total_s"] > 0.0

    def test_per_run_csv_written(self, sweep_outputs):
        _, _, out_dir = sweep_outputs
        csv = (out_dir / "run_eps_0.2.csv").read_text().splitlines()
        assert csv[0].startswith("time,E_k,D_k")
        assert len(csv) == 1 + 5  # header + samples at 0, .05, .1, .15, .2
        values = [float(x) for x in csv[1].split(",")]
        assert values[0] == 0.0

    def test_summary_byte_identical_on_rerun(self, sweep_outputs, tmp_path):
        cfg, _, out_dir = sweep_outputs
        rerun_cfg = SweepConfig.from_dict(cfg.as_dict(), out_dir=tmp_path)
        run_sweep(rerun_cfg)
        assert (tmp_path / "summary.json").read_bytes() == (out_dir / "summary.json").read_bytes()
        assert ((tmp_path / "run_eps_0.1.csv").read_bytes()
                == (out_dir / "run_eps_0.1.csv").read_bytes())

    def test_direct_config_reports_its_settings(self, sweep_outputs, tmp_path):
        # a SweepConfig built in code, equal to SMALL_INI's, writes the
        # summary of the file's sweep, config and hash included
        _, result, out_dir = sweep_outputs
        template = SolverConfig(epsilon=0.1, t_final=0.2, n_x=32, n_v=16, dt_max=2e-3,
                                scheme="imex_bdf2")
        cfg = SweepConfig(epsilons=(0.2, 0.1), template=template, sample_interval=0.05,
                          amplitude=0.01, profile_mode=1, k=1, out_dir=tmp_path)
        direct = run_sweep(cfg)
        assert direct.config == result.config
        assert direct.config_hash == result.config_hash
        assert (tmp_path / "summary.json").read_bytes() == (out_dir / "summary.json").read_bytes()

    def test_str_out_dir_is_a_path(self, sweep_outputs, tmp_path):
        cfg, _, out_dir = sweep_outputs
        result = run_sweep(replace(cfg, out_dir=str(tmp_path)))
        assert result.incomplete == []
        for name in ("summary.json", "run_eps_0.2.csv", "run_eps_0.1.csv"):
            assert (tmp_path / name).read_bytes() == (out_dir / name).read_bytes()

    def test_missing_summary_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="no sweep summary"):
            load_summary(tmp_path)


class TestBatchedSweep:
    """The epsilons of a sweep run as one batch at one step, and give what
    one run per epsilon gives."""

    @pytest.mark.parametrize("settings, batches", [
        ({}, [(0.2, 0.1, 0.05)]),
        # eps = 1e-100 steps at dt_max too: the scheme is stable uniformly in eps
        ({"sweep__epsilons": "0.2,1e-3,1e-100"}, [(0.2, 1e-3, 1e-100)]),
    ])
    def test_outputs_equal_one_run_per_epsilon(self, tmp_path, monkeypatch, settings, batches):
        from vpfp import harness

        ini = small_ini_with(tmp_path, **{**THREE_EPS, **settings})
        cfg = SweepConfig.from_dict(parse_config_file(ini), out_dir=tmp_path / "batched")
        runs = []
        run = harness.run
        monkeypatch.setattr(harness, "run", lambda *a, epsilons, **kw: (
            runs.append(epsilons), run(*a, epsilons=epsilons, **kw))[1])
        result = run_sweep(cfg)
        assert runs == batches
        fluid = fluid_reference(cfg)
        records = [one_run_record(cfg, eps, fluid, tmp_path / "single" / f"run_eps_{eps:g}.csv")
                   for eps in cfg.epsilons]
        write_summary(tmp_path / "single", replace(
            result, per_epsilon=records, rates=estimate_rates_from_records(records)))
        for eps in cfg.epsilons:
            name = f"run_eps_{eps:g}.csv"
            assert (tmp_path / "batched" / name).read_bytes() == (tmp_path / "single" / name).read_bytes()
        assert ((tmp_path / "batched" / "summary.json").read_bytes()
                == (tmp_path / "single" / "summary.json").read_bytes())

    def test_failed_member_gives_sequential_partial_summary(self, tmp_path, monkeypatch):
        from vpfp import solver

        ini = small_ini_with(tmp_path, **THREE_EPS)
        cfg = SweepConfig.from_dict(parse_config_file(ini), out_dir=tmp_path / "out")
        clean = one_run_record(cfg, 0.2, fluid_reference(cfg))
        rhs = solver.vpfp_rhs

        def leaky_rhs(g, epsilon, **kwargs):
            # the explicit terms of the member with eps = 0.1 add mass
            out = rhs(g, epsilon, **kwargs)
            for member, eps in enumerate(epsilon):
                if eps == 0.1:
                    out[0, member, 0] += 1.0
            return out

        monkeypatch.setattr(solver, "vpfp_rhs", leaky_rhs)
        with pytest.raises(ConservationError) as alone:
            run_single(cfg, 0.1)
        runs = []
        monkeypatch.setattr("vpfp.harness.run", lambda *a, epsilons, **kw: (
            runs.append(epsilons), solver.run(*a, epsilons=epsilons, **kw))[1])
        with pytest.raises(SweepError, match="aborted at epsilon = 0.1"):
            run_sweep(cfg)
        # the batch, then its members one at a time up to the failing one
        assert runs == [(0.2, 0.1, 0.05), (0.2,), (0.1,)]
        summary = load_summary(tmp_path / "out")
        assert summary["per_epsilon"] == [clean]
        assert summary["incomplete"] == [{"epsilon": 0.1,
                                          "error": f"ConservationError: {alone.value}"}]
        assert summary["rates"] == estimate_rates_from_records([clean])
        assert sorted(p.name for p in (tmp_path / "out").glob("*.csv")) == ["run_eps_0.2.csv"]

    @pytest.mark.parametrize("entry", ["run_sweep", "run_single"])
    def test_no_sampled_state_outlives_its_batch(self, tmp_path, monkeypatch, entry):
        # run_single is what vpfp run calls: a batch of one
        from vpfp import harness

        ini = small_ini_with(tmp_path, **THREE_EPS)
        cfg = SweepConfig.from_dict(parse_config_file(ini))
        sampled = []  # (time, weak reference) of the batch states past t = 0
        energy, run = harness.energy_functionals, harness.run

        def alive(before=np.inf):
            gc.collect()
            return sum(ref() is not None for time, ref in sampled if time < before)

        def watched_energy(state, k, epsilons):
            assert state.g.coeffs.shape[1] == len(epsilons)  # the whole batch at once
            if state.time > 0.0:  # t = 0 is the sweep's one initial state
                assert alive(before=state.time) == 0  # earlier samples are gone
                sampled.extend((state.time, weakref.ref(obj)) for obj in (state, state.g.coeffs))
            return energy(state, k, epsilons)

        def checked_run(*args, **kwargs):
            assert alive() == 0
            return run(*args, **kwargs)

        monkeypatch.setattr(harness, "energy_functionals", watched_energy)
        monkeypatch.setattr(harness, "run", checked_run)
        if entry == "run_sweep":
            result = run_sweep(cfg)
            assert len(result.per_epsilon) == len(cfg.epsilons)
        else:
            reports = run_single(cfg, 0.1)  # held while the states are counted
            assert len(reports) == 5
        # one batch state per sample past t = 0, whatever the batch size
        assert len(sampled) == 2 * 4
        assert alive() == 0


    def test_one_hermite_table_per_sweep(self, tmp_path, monkeypatch):
        # the batch and its rerun one member at a time: every state carries
        # the initial state's basis, so its psi table is built once
        from vpfp import solver
        from vpfp.spectral import HermiteBasis

        ini = small_ini_with(tmp_path, **THREE_EPS)
        cfg = SweepConfig.from_dict(parse_config_file(ini), out_dir=tmp_path / "out")
        rhs = solver.vpfp_rhs

        def leaky_rhs(g, epsilon, **kwargs):
            # a batch of several fails, so its members are rerun
            out = rhs(g, epsilon, **kwargs)
            if len(epsilon) > 1:
                out.coeffs[0, :, 0] += 1.0
            return out

        monkeypatch.setattr(solver, "vpfp_rhs", leaky_rhs)
        tables = []
        functions = HermiteBasis.functions
        monkeypatch.setattr(HermiteBasis, "functions", lambda self, *args, **kwargs: (
            tables.append(self), functions(self, *args, **kwargs))[1])
        result = run_sweep(cfg)
        assert [rec["epsilon"] for rec in result.per_epsilon] == list(cfg.epsilons)
        assert len(tables) == 1


class TestFluidReference:
    """The fluid reference steps FLUID_SUBSTEPS times per kinetic step of
    the sweep's own schedule, and samples at the kinetic sample times."""

    def test_ten_fluid_steps_per_kinetic_step(self, tmp_path, monkeypatch):
        # dt_max = 3e-3 fits 17 kinetic steps into each 0.05 sample, so the
        # fluid reference takes 170, whatever the default dt_max's 200
        from vpfp import ddp, harness
        from vpfp.solver import VpfpStepper

        kinetic, fluid, pairs = [], [], []
        advance, step, observe = VpfpStepper.advance, ddp.ddp_step, harness.limit_error

        def counted_advance(self, state, n):
            kinetic.append((self.dt, n))
            return advance(self, state, n)

        def counted_step(grid, state, dt):
            new = step(grid, state, dt)
            fluid.append((dt, new.time))
            return new

        def paired(state, ddp_state, k):
            pairs.append((state.time, ddp_state.time))
            return observe(state, ddp_state, k)

        monkeypatch.setattr(VpfpStepper, "advance", counted_advance)
        monkeypatch.setattr(ddp, "ddp_step", counted_step)
        monkeypatch.setattr(harness, "limit_error", paired)
        ini = small_ini_with(tmp_path, solver__dt_max="3e-3")  # t_final = 0.2: 4 samples
        cfg = SweepConfig.from_dict(parse_config_file(ini))
        assert cfg.fluid_dt == (0.05 / 17) / 10
        run_sweep(cfg)
        assert kinetic == [(0.05 / 17, 17)] * 4
        assert [dt for dt, _ in fluid] == [0.05 / 170] * (4 * 170)
        for s in range(4):  # each sample's last fluid step lands on its time
            assert fluid[170 * s + 169][1] == pytest.approx(0.05 * (s + 1), rel=1e-13)
        assert [kinetic_time for kinetic_time, _ in pairs] == pytest.approx(
            [0.0, 0.05, 0.1, 0.15, 0.2], rel=1e-15)
        assert all(kinetic_time == fluid_time for kinetic_time, fluid_time in pairs)

    def test_sweep_to_zero_time(self, tmp_path):
        # t_final = 0 fits no kinetic step, so no fluid step either: each
        # run is its initial sample, at a fluid step a tenth of dt_max's
        ini = small_ini_with(tmp_path, solver__t_final="0")
        cfg = SweepConfig.from_dict(parse_config_file(ini))
        assert cfg.fluid_dt == 2e-3 / 10
        result = run_sweep(cfg)
        assert result.incomplete == []
        assert [rec["micro_time_integral"] for rec in result.per_epsilon] == [0.0, 0.0]


class TestLargeBasis:
    def test_192_squared_bdf2_run(self, tmp_path):
        # n_v = 192 lies above the cap that plain-measure quadrature weights
        # once set; the run and its pointwise limit error need only the nodes
        ini = small_ini_with(tmp_path, grid__n_x="192", grid__n_v="192",
                             solver__t_final="0.25", solver__dt_max="5e-3")
        cfg = SweepConfig.from_dict(parse_config_file(ini))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reports = run_single(cfg, 0.2, csv_path=tmp_path / "run.csv")
            record = one_run_record(cfg, 0.2, fluid_reference(cfg), tmp_path / "ref.csv")
        # a step raises on a non-finite state, so the run reached t = 0.25
        assert reports[-1].time == pytest.approx(0.25)
        assert all(np.isfinite(r).all() for r in reports)
        assert np.all(np.isfinite([record[key] for key in METRIC_KEYS]))
        assert (tmp_path / "run.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# a kinetic run (argument "run") or a sweep ("sweep") in a fresh
# interpreter, from the built-in config at 16 x 8 (parsing an INI loads
# configparser by design); prints which of the lazily imported modules are
# loaded after it, the default config_hash, and which are loaded after hashing
FOOTPRINT_SCRIPT = """
import json, sys
import vpfp, vpfp.cli
from vpfp.harness import (SweepConfig, config_hash, default_sweep_config, run_single,
                          run_sweep)
cfg = default_sweep_config()
cfg["grid"].update(n_x=16, n_v=8)
cfg["solver"]["t_final"] = 0.05
if sys.argv[1] == "run":
    run_single(SweepConfig.from_dict(cfg), 0.1)
else:
    run_sweep(SweepConfig.from_dict(cfg))
lazy = ("hashlib", "_hashlib", "configparser")
after_call = [name for name in lazy if name in sys.modules]
digest = config_hash(default_sweep_config())
print(json.dumps([after_call, digest, [name for name in lazy if name in sys.modules]]))
"""

# config_hash needs no OpenSSL where CPython has its built-in SHA-256 module
BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))


def footprint(call: str) -> list:
    import vpfp

    env = {**os.environ, "PYTHONPATH": str(Path(vpfp.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", FOOTPRINT_SCRIPT, call], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


class TestImportFootprint:
    def test_kinetic_run_loads_neither_hashlib_nor_configparser(self):
        # hashlib maps OpenSSL, a few MB of every run's peak memory; only
        # parse_config_file needs configparser
        after_run, digest, after_hash = footprint("run")
        assert after_run == []
        assert digest == "b2352e181e4893f9"
        if not BUILTIN_SHA256:
            pytest.skip("this interpreter has neither _sha2 nor _sha256, so hashing loads hashlib")
        assert after_hash == []  # config_hash used the built-in SHA-256

    @pytest.mark.skipif(not BUILTIN_SHA256, reason="neither _sha2 nor _sha256 imports")
    def test_sweep_maps_no_openssl(self):
        # the sweep hashes its config, as config_hash does after it
        after_sweep, digest, after_hash = footprint("sweep")
        assert after_sweep == [] and after_hash == []
        assert digest == "b2352e181e4893f9"


def run_with_closed_reader(args: list, unbuffered: bool, closed: str = "stdout") -> tuple[int, str]:
    """Exit code and the other stream's text of `python -m vpfp.cli *args`
    whose stdout (or stderr, when closed is "stderr") is a pipe with its
    read end closed before the child starts."""
    import vpfp

    env = {**os.environ, "PYTHONPATH": str(Path(vpfp.__file__).parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, closed: write_end}
    try:
        proc = subprocess.run([sys.executable, "-m", "vpfp.cli", *args], text=True, env=env,
                              **streams)
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr if closed == "stdout" else proc.stdout


class TestClosedStdout:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("case, code, files", [
        ("run", EXIT_OK, ["run_eps_0.1.csv"]),
        ("sweep", EXIT_OK, ["run_eps_0.2.csv", "run_eps_0.1.csv", "summary.json"]),
        ("report", EXIT_OK, ["metrics.csv"]),
        ("failing_sweep", EXIT_RUN_FAILURE, ["summary.json"]),
    ], ids=["run", "sweep", "report", "failing_sweep"])
    def test_command_writes_its_files_and_exit_code(self, small_ini, sweep_outputs, tmp_path,
                                                     case, code, files, unbuffered):
        # a reader that has gone drops the rest of the output, with no
        # traceback; the command has written its files and keeps its code,
        # and only a failed sweep says a line, its cause, on stderr
        out = tmp_path / "out"
        ini = small_ini
        if case == "report":
            out.mkdir()
            (out / "summary.json").write_bytes((sweep_outputs[2] / "summary.json").read_bytes())
        if case == "failing_sweep":
            # amplitude 2 fails the first kinetic run (see test_partial_results_persisted)
            ini = small_ini_with(tmp_path, sweep__amplitude="2.0", solver__t_final="0.05")
        command = case.split("_")[-1]
        args = ["--config", str(ini), "--out", str(out), command]
        returned, err = run_with_closed_reader(args, unbuffered)
        assert returned == code
        if case == "failing_sweep":
            assert err.count("\n") == 1 and err.startswith(
                "sweep failed: sweep aborted at epsilon = 0.2: ValueError: ")
        else:
            assert err == ""
        for name in files:
            assert (out / name).is_file()


class TestClosedStderr:
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_configuration_error_exits_2(self, tmp_path, unbuffered):
        # the error line goes nowhere, and the exit code still says why
        args = ["--config", str(tmp_path / "nonexistent.ini"), "run"]
        assert run_with_closed_reader(args, unbuffered, closed="stderr") == (EXIT_CONFIG_ERROR, "")

    def test_run_failure_exits_1(self, tmp_path):
        # a kinetic blow-up (see test_kinetic_blow_up_is_one_error)
        ini = small_ini_with(tmp_path, BLOW_UP_INI)
        args = ["--config", str(ini), "--out", str(tmp_path / "out"), "--quiet", "run"]
        assert run_with_closed_reader(args, False, closed="stderr") == (EXIT_RUN_FAILURE, "")


class TestFailurePersistence:
    def test_partial_results_persisted(self, small_ini, tmp_path):
        from vpfp.harness import SweepError

        # amplitudes 2 and 1e155 fail the kinetic positivity check, so the
        # first kinetic run aborts before the fluid reference runs, which
        # would warn on the density and overflow at 1e155: whatever the
        # warning filter, the sweep warns of nothing and persists its summary
        for amplitude in (2.0, 1e155):
            for action in ("default", "error"):
                cfg = parse_config_file(small_ini)
                cfg["sweep"]["amplitude"] = amplitude
                cfg["solver"]["t_final"] = 0.05
                out = tmp_path / f"out_{amplitude:g}_{action}"
                sweep_cfg = SweepConfig.from_dict(cfg, out_dir=out)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter(action, RuntimeWarning)
                    with pytest.raises(SweepError) as info:
                        run_sweep(sweep_cfg)
                assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
                partial = info.value.partial
                assert partial.per_epsilon == []
                assert partial.incomplete and partial.incomplete[0]["epsilon"] == 0.2
                assert partial.incomplete[0]["error"].startswith(
                    "ValueError: reconstructed distribution is not positive")
                assert "ddp_reference_s" not in partial.timings
                summary = load_summary(out)
                assert summary["incomplete"][0]["epsilon"] == 0.2

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_fluid_reference_failure_fails_first_epsilon(self, tmp_path, capsys, action):
        # this fluid reference turns non-positive, then blows up at t = 2.8e8;
        # a fault in the set-up fails the first epsilon, as it would alone:
        # SweepError with the partial summary, exit 1 in one stderr line,
        # and no NumPy overflow or invalid-value warning before it
        ini = small_ini_with(tmp_path, BLOW_UP_INI, solver__t_final="1e10",
                             solver__dt_max="1e8", sweep__sample_interval="1e10")
        sweep_cfg = SweepConfig.from_dict(parse_config_file(ini), out_dir=tmp_path / "lib")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(SweepError) as info:
                run_sweep(sweep_cfg)
            code = main(["--config", str(ini), "--out", str(tmp_path / "cli"), "--quiet",
                         "sweep"])
        messages = [str(w.message) for w in caught]
        assert not [m for m in messages if "overflow encountered" in m or "invalid value" in m]
        assert code == EXIT_RUN_FAILURE
        assert capsys.readouterr().err.count("\n") == 1
        partial = info.value.partial
        assert partial.per_epsilon == [] and "ddp_reference_s" not in partial.timings
        error = {"default": "FloatingPointError: non-finite fluid state at t = 2.8e+08",
                 "error": "RuntimeWarning: reconstructed fluid density is not positive"}
        for out in ("lib", "cli"):
            (record,) = load_summary(tmp_path / out)["incomplete"]
            assert record["epsilon"] == 0.2 and record["error"].startswith(error[action])

    @pytest.mark.parametrize("action", ["default", "error"])
    @pytest.mark.parametrize("dt_max", ["10", "25"])
    def test_kinetic_blow_up_is_one_error(self, tmp_path, capsys, dt_max, action):
        # at these steps the state grows until it overflows; whatever the
        # warning filter, run says so in one line and the sweep records the
        # first non-finite state
        ini = small_ini_with(tmp_path, BLOW_UP_INI, solver__dt_max=dt_max)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            run_code = main(["--config", str(ini), "--out", str(tmp_path / "run"), "--quiet",
                             "run"])
            run_err = capsys.readouterr().err
            sweep_code = main(["--config", str(ini), "--out", str(tmp_path / "sweep"),
                               "--quiet", "sweep"])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert run_code == sweep_code == EXIT_RUN_FAILURE
        assert run_err.startswith("run failed: non-finite state detected at t = ")
        assert run_err.count("\n") == 1
        (record,) = load_summary(tmp_path / "sweep")["incomplete"]
        assert record["error"].startswith("FloatingPointError: non-finite state detected at t = ")

    @pytest.mark.parametrize("action", ["default", "error"])
    def test_non_finite_energy_is_one_error(self, tmp_path, capsys, action):
        # at epsilon = 1 the state is still finite but huge at t = 130, so
        # its squares in the energy functionals overflow, and at 0.2 it is so
        # at t = 120; whatever the warning filter, run says so in one line
        # and the sweep records it
        ini = small_ini_with(tmp_path, BLOW_UP_INI, solver__epsilon="1",
                             sweep__sample_interval="10")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action, RuntimeWarning)
            run_code = main(["--config", str(ini), "--out", str(tmp_path / "run"), "--quiet",
                             "run"])
            run_err = capsys.readouterr().err
            sweep_code = main(["--config", str(ini), "--out", str(tmp_path / "sweep"),
                               "--quiet", "sweep"])
        assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert run_code == sweep_code == EXIT_RUN_FAILURE
        assert run_err == "run failed: non-finite energy functional at t = 130\n"
        assert not (tmp_path / "run" / "run_eps_1.csv").exists()
        (record,) = load_summary(tmp_path / "sweep")["incomplete"]
        assert record == {"epsilon": 0.2, "error":
                          "FloatingPointError: non-finite energy functional at t = 120"}


class TestCli:
    def test_check_and_seed_are_usage_errors(self, tmp_path, capsys):
        # the operator checks run in the test suite, so the command and the
        # seed of its random fields are gone
        assert main(["check"]) == EXIT_CONFIG_ERROR
        assert main(["--seed", "1", "--out", str(tmp_path), "run"]) == EXIT_CONFIG_ERROR
        assert not any(tmp_path.iterdir())

    def test_quiet_after_command(self, sweep_outputs, tmp_path, capsys):
        (tmp_path / "summary.json").write_bytes((sweep_outputs[2] / "summary.json").read_bytes())
        assert main(["--out", str(tmp_path), "report", "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert (tmp_path / "metrics.csv").is_file()

    def test_sweep_prints_one_line_per_epsilon(self, small_ini, tmp_path, capsys):
        loud, quiet = tmp_path / "loud", tmp_path / "quiet"
        assert main(["--config", str(small_ini), "--out", str(loud), "sweep"]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        summary = json.loads((loud / "summary.json").read_text())
        assert len(lines) == 3 and lines[-1].startswith("sweep complete")
        for line, rec in zip(lines, summary["per_epsilon"]):
            assert line.startswith(f"eps = {rec['epsilon']:g}: ")
            assert f"final E_k = {rec['final_E_k']:.6e}" in line
        assert main(["--config", str(small_ini), "--out", str(quiet), "sweep",
                     "--quiet"]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert (loud / "summary.json").read_bytes() == (quiet / "summary.json").read_bytes()

    def test_sweep_runs_its_epsilons_as_one_batch(self, tmp_path, monkeypatch):
        # one solver.run call steps every epsilon, and timings has its one key
        from vpfp import harness

        events = []
        run = harness.run

        def traced_run(*args, epsilons, **kwargs):
            run(*args, epsilons=epsilons, **kwargs)
            events.append(("ran", epsilons))

        monkeypatch.setattr(harness, "run", traced_run)
        ini = small_ini_with(tmp_path, **THREE_EPS)
        cfg = SweepConfig.from_dict(parse_config_file(ini))
        result = run_sweep(cfg)
        assert events == [("ran", (0.2, 0.1, 0.05))]
        assert {key for key in result.timings if key.startswith("run_eps_")} == {
            "run_eps_0.2_0.1_0.05_s"}

    def test_library_prints_nothing(self, small_ini, capsys):
        # the sweep returns its results; only vpfp.cli prints
        run_sweep(SweepConfig.from_dict(parse_config_file(small_ini)))
        assert capsys.readouterr().out == ""

    def test_run_vpfp(self, small_ini, tmp_path):
        code = main(["--config", str(small_ini), "--out", str(tmp_path), "--quiet", "run"])
        assert code == EXIT_OK
        assert (tmp_path / "run_eps_0.1.csv").exists()

    @pytest.mark.parametrize("settings, dt, steps", [
        ({"solver__epsilon": "1e-100"}, 2e-3, 25),
        # the default grid and step, where 1e-150 keeps the implicit factors finite
        ({"solver__epsilon": "1e-150", **DEFAULT_GRID_AND_STEP}, 2.5e-3, 20),
    ])
    def test_tiny_epsilon_steps_at_dt_max(self, tmp_path, monkeypatch, settings, dt, steps):
        # the step does not shrink with eps: 0.05 / dt steps per sample
        from vpfp.solver import VpfpStepper

        taken = []
        advance = VpfpStepper.advance

        def counted(self, state, n):
            taken.append((self.dt, n))
            return advance(self, state, n)

        monkeypatch.setattr(VpfpStepper, "advance", counted)
        ini = small_ini_with(tmp_path, **settings)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["--config", str(ini), "--out", str(tmp_path), "--quiet", "run"])
        assert code == EXIT_OK
        assert taken == [(dt, steps)] * 4
        csv = tmp_path / f"run_eps_{settings['solver__epsilon']}.csv"
        rows = csv.read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == pytest.approx(
            [0.0, 0.05, 0.1, 0.15, 0.2])

    def test_sweep_and_report(self, small_ini, tmp_path, capsys):
        assert main(["--config", str(small_ini), "--out", str(tmp_path), "--quiet",
                     "sweep"]) == EXIT_OK
        assert (tmp_path / "summary.json").exists()
        assert main(["--config", str(small_ini), "--out", str(tmp_path), "report"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "pairwise rates" in out
        assert (tmp_path / "metrics.csv").exists()

    def test_failed_sweep_exit_code_and_report(self, tmp_path, capsys):
        # amplitudes 2 and 1e155 fail the first kinetic run (see
        # test_partial_results_persisted), whatever the warning filter: one
        # stderr line names the cause, with or without --quiet, and no
        # warning is raised; report then lists it
        cause = ("sweep failed: sweep aborted at epsilon = 0.2: ValueError: "
                 "reconstructed distribution is not positive; min f/sqrt(M) = -")
        for amplitude in ("2.0", "1e155"):
            for action, quiet in (("default", []), ("error", []), ("error", ["--quiet"])):
                ini = small_ini_with(tmp_path, sweep__amplitude=amplitude,
                                     solver__t_final="0.05")
                out = tmp_path / f"out_{amplitude}_{action}_{len(quiet)}"
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter(action, RuntimeWarning)
                    code = main(["--config", str(ini), "--out", str(out), *quiet, "sweep"])
                assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
                assert code == EXIT_RUN_FAILURE
                captured = capsys.readouterr()
                assert captured.out == ""
                assert captured.err.count("\n") == 1 and captured.err.startswith(cause)
                assert main(["--out", str(out), "report"]) == EXIT_OK
                assert ("incomplete runs: [{'epsilon': 0.2, 'error': 'ValueError: "
                        in capsys.readouterr().out)

    def test_malformed_config_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("n_x = 8\n")  # no section header
        code = main(["--config", str(bad), "--out", str(tmp_path / "out"), "--quiet", "run"])
        assert code == EXIT_CONFIG_ERROR
        assert "malformed config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_file_not_utf8_is_config_error(self, tmp_path, capsys):
        bad = tmp_path / "latin.ini"
        bad.write_bytes(b"[grid]\nn_x = 3\xff2\n")
        code = main(["--config", str(bad), "--out", str(tmp_path / "out"), "--quiet", "run"])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.count("\n") == 1
        assert err.startswith(f"configuration error: config file {bad} is not UTF-8: ")
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[grid]\nn_z = 8\n")
        assert main(["--config", str(bad), "--quiet", "run"]) == EXIT_CONFIG_ERROR

    def test_config_directory_is_config_error(self, tmp_path, capsys):
        # ConfigParser.read skips a path it cannot open, which would run the
        # built-in defaults; a directory must be rejected instead
        code = main(["--config", str(tmp_path), "--out", str(tmp_path / "out"), "--quiet",
                     "sweep"])
        assert code == EXIT_CONFIG_ERROR
        assert "cannot read config file" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, settings, message", [
        ("run", {"sweep__sample_interval": "0"}, "sample_interval must be positive"),
        ("sweep", {"sweep__sample_interval": "0"}, "sample_interval must be positive"),
        ("run", {"sweep__sample_interval": "-0.05"}, "sample_interval must be positive"),
        ("sweep", {"sweep__sample_interval": "-0.05"}, "sample_interval must be positive"),
        # the fluid step follows dt_max: ddp_dt is no setting, whatever its value
        ("sweep", {"sweep__ddp_dt": "0"}, "unknown config key 'ddp_dt' in section [sweep]"),
        ("sweep", {"sweep__ddp_dt": "-1"}, "unknown config key 'ddp_dt' in section [sweep]"),
        ("run", {"sweep__ddp_dt": "0"}, "unknown config key 'ddp_dt' in section [sweep]"),
        ("run", {"diagnostics__k": "0"}, "k must be >= 1"),
        ("sweep", {"diagnostics__k": "0"}, "k must be >= 1"),
        ("run", {"sweep__profile_mode": "0"}, "profile_mode must lie in"),
        ("sweep", {"sweep__profile_mode": "0"}, "profile_mode must lie in"),
        ("sweep", {"sweep__profile_mode": "17"}, "profile_mode must lie in"),
        ("run", {"grid__n_v": "365"}, "n_v must lie in"),
        ("sweep", {"grid__n_v": "365"}, "n_v must lie in"),
        ("run", {"grid__d": "2"}, "unknown config key 'd'"),
        ("sweep", {"grid__d": "2"}, "unknown config key 'd'"),
        ("run", {"solver__poisson_correction": "true"},
         "unknown config key 'poisson_correction'"),
        ("sweep", {"solver__poisson_correction": "true"},
         "unknown config key 'poisson_correction'"),
        ("run", {"sweep__sample_interval": "0.3", "solver__t_final": "1.0"},
         "sample_interval = 0.3 does not divide t_final = 1"),
        ("sweep", {"sweep__sample_interval": "0.3", "solver__t_final": "1.0"},
         "sample_interval = 0.3 does not divide t_final = 1"),
        ("run", {"sweep__sample_interval": "2.0", "solver__t_final": "1.0"},
         "sample_interval = 2 exceeds t_final = 1"),
        ("sweep", {"sweep__sample_interval": "2.0", "solver__t_final": "1.0"},
         "sample_interval = 2 exceeds t_final = 1"),
        ("run", {"sweep__profile_mode": "16"}, "profile_mode must lie in"),
        ("sweep", {"sweep__profile_mode": "16"}, "profile_mode must lie in"),
        ("run", {"solver__system": "bogus"}, "unknown config key 'system'"),
        ("sweep", {"solver__system": "bogus"}, "unknown config key 'system'"),
        # float settings must be finite, and every step fits at config time
        ("run", {"solver__t_final": "inf"}, "bad value for solver.t_final"),
        ("sweep", {"solver__t_final": "inf"}, "bad value for solver.t_final"),
        ("sweep", {"solver__t_final": "nan"}, "bad value for solver.t_final"),
        ("sweep", {"sweep__sample_interval": "nan"}, "bad value for sweep.sample_interval"),
        # so is a value that was valid, the old default and SMALL_INI's, as
        # are cfl_scale and system below
        ("run", {"sweep__ddp_dt": "2.5e-4"}, "unknown config key 'ddp_dt' in section [sweep]"),
        ("sweep", {"sweep__ddp_dt": "1e-3"}, "unknown config key 'ddp_dt' in section [sweep]"),
        ("sweep", {"solver__dt_max": "nan"}, "bad value for solver.dt_max"),
        ("run", {"solver__dt_max": "1e-320"}, "is too small for the sample interval"),
        ("sweep", {"solver__dt_max": "1e-320"}, "is too small for the sample interval"),
        ("sweep", {"sweep__epsilons": "0.2,nan"}, "bad value for sweep.epsilons"),
        ("run", {"sweep__amplitude": "nan"}, "bad value for sweep.amplitude"),
        ("sweep", {"sweep__amplitude": "inf"}, "bad value for sweep.amplitude"),
        # the period is 2 pi: length is no setting, whatever its value
        ("run", {"grid__length": "inf"}, "unknown config key 'length' in section [grid]"),
        ("sweep", {"grid__length": "nan"}, "unknown config key 'length' in section [grid]"),
        # every run steps at dt_max: no setting caps the step in proportion to eps
        ("sweep", {"solver__cfl_scale": "0.5"},
         "unknown config key 'cfl_scale' in section [solver]"),
        # the fluid-only run is gone: system is no setting
        ("run", {"solver__system": "ddp"}, "unknown config key 'system' in section [solver]"),
        ("sweep", {"solver__system": "ddp"}, "unknown config key 'system' in section [solver]"),
        # values are verbatim: '%' is no interpolation syntax
        ("run", {"sweep__amplitude": "1%"}, "bad value for sweep.amplitude: '1%'"),
        ("sweep", {"sweep__amplitude": "1%"}, "bad value for sweep.amplitude: '1%'"),
        # every k^2 is a normal, finite double, and so is every Sobolev weight
        ("run", {"diagnostics__k": "120", "grid__n_x": "64", "grid__n_v": "64"},
         "Sobolev order k = 120 overflows"),
        ("sweep", {"diagnostics__k": "120", "grid__n_x": "64", "grid__n_v": "64"},
         "k must be at most 102"),
        ("run", {"diagnostics__k": "60", "grid__n_x": "1024"}, "k must be at most 56"),
        ("sweep", {"diagnostics__k": "60", "grid__n_x": "1024"}, "k must be at most 56"),
        # one past the largest order: k = 102 runs on the default grid
        ("run", {"diagnostics__k": "103", "grid__n_x": "64"}, "Sobolev order k = 103 overflows"),
        ("sweep", {"diagnostics__k": "103", "grid__n_x": "64"}, "k must be at most 102"),
        # the smallest grid allows the largest order
        ("run", {"diagnostics__k": "600", "grid__n_x": "4"}, "Sobolev order k = 600 overflows"),
        ("sweep", {"diagnostics__k": "600", "grid__n_x": "4"}, "k must be at most 511"),
        # nor is the default period, or any other, a setting
        ("run", {"grid__length": "6.283185307179586"},
         "unknown config key 'length' in section [grid]"),
        ("sweep", {"grid__length": "6.283185307179586"},
         "unknown config key 'length' in section [grid]"),
        ("run", {"grid__length": "3"}, "unknown config key 'length' in section [grid]"),
        ("sweep", {"grid__length": "3"}, "unknown config key 'length' in section [grid]"),
        # eps^2 must be a normal double: below 2^-511 the implicit factors
        # and the dissipation overflow
        ("run", {"solver__epsilon": "1e-200"}, "epsilon must lie in [1.4917e-154, 1]"),
        ("sweep", {"solver__epsilon": "1e-200"}, "epsilon must lie in [1.4917e-154, 1]"),
        ("run", {"sweep__epsilons": "0.2,1e-200"}, "epsilon must lie in [1.4917e-154, 1]"),
        ("sweep", {"sweep__epsilons": "0.2,1e-200"}, "epsilon must lie in [1.4917e-154, 1]"),
        # at the default grid and step, (n_v - 1) / eps^2 overflows the top
        # diagonal entry of the implicit blocks below about 5.92e-154
        ("run", {"solver__epsilon": repr(2.0**-511), **DEFAULT_GRID_AND_STEP},
         "overflows the implicit factors"),
        ("sweep", {"solver__epsilon": repr(2.0**-511), **DEFAULT_GRID_AND_STEP},
         "epsilon must exceed about 5.92e-154"),
        # six significant digits name a run's energy CSV and timings key
        ("run", {"sweep__epsilons": "0.1000001,0.1"},
         "epsilons 0.1000001 and 0.1 both write run_eps_0.1.csv"),
        ("sweep", {"sweep__epsilons": "0.1000001,0.1"},
         "epsilons 0.1000001 and 0.1 both write run_eps_0.1.csv"),
        # a step at which no epsilon <= 1 keeps the implicit factors finite
        ("run", {"solver__dt_max": "1e153"}, "no epsilon <= 1 keeps it finite at this dt_max"),
        ("sweep", {"solver__dt_max": "1e160"}, "no epsilon <= 1 keeps it finite at this dt_max"),
    ])
    def test_bad_setting_is_config_error(self, tmp_path, capsys, command, settings, message):
        ini = small_ini_with(tmp_path, **settings)
        code = main(["--config", str(ini), "--out", str(tmp_path / "out"), "--quiet", command])
        assert code == EXIT_CONFIG_ERROR
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()  # nothing ran

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("below", [False, True], ids=["file", "path_under_file"])
    def test_out_that_cannot_be_a_directory(self, small_ini, tmp_path, capsys, monkeypatch,
                                            command, below):
        # --out is made once the config is valid, so a file in its place
        # fails before any run instead of when the first output is written
        from vpfp import harness

        calls = []
        monkeypatch.setattr(harness, "run", lambda *args, **kwargs: calls.append(args))
        blocker = tmp_path / "outfile"
        blocker.touch()
        out = blocker / "sub" if below else blocker
        code = main(["--config", str(small_ini), "--out", str(out), "--quiet", command])
        err = capsys.readouterr().err
        assert code == EXIT_CONFIG_ERROR
        assert err.count("\n") == 1 and err.startswith("configuration error: ")
        assert str(out) in err
        assert calls == []
        assert blocker.is_file()

    def test_arithmetic_error_is_run_failure(self, small_ini, tmp_path, capsys, monkeypatch):
        from vpfp import cli

        def overflowing_run(*args, **kwargs):
            raise OverflowError("math range error")

        monkeypatch.setattr(cli, "run_single", overflowing_run)
        code = main(["--config", str(small_ini), "--out", str(tmp_path), "--quiet", "run"])
        assert code == EXIT_RUN_FAILURE
        assert capsys.readouterr().err == "run failed: math range error\n"

    @pytest.mark.parametrize("command, blocked", [
        ("run", "run_eps_0.1.csv"),
        ("sweep", "run_eps_0.1.csv"),
        ("report", "metrics.csv"),
    ])
    def test_unwritable_output_is_run_failure(self, small_ini, sweep_outputs, tmp_path, capsys,
                                              monkeypatch, command, blocked):
        # a directory where the command writes a file: one stderr line and
        # exit 1, and a sweep reruns nothing, as no run failed
        from vpfp import harness

        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        if command == "report":
            (out / "summary.json").write_bytes((sweep_outputs[2] / "summary.json").read_bytes())
        runs = []
        run = harness.run
        monkeypatch.setattr(harness, "run", lambda *a, **kw: (runs.append(a), run(*a, **kw))[1])
        code = main(["--config", str(small_ini), "--out", str(out), "--quiet", command])
        err = capsys.readouterr().err
        assert code == EXIT_RUN_FAILURE
        assert err.count("\n") == 1 and err.startswith("run failed: ")
        assert str(out / blocked) in err
        assert len(runs) == {"run": 1, "sweep": 1, "report": 0}[command]

    def test_unwritable_csv_fails_no_epsilon(self, small_ini, tmp_path):
        # the sweep raises the OSError itself, not a SweepError that blames
        # the epsilon whose CSV could not be written
        cfg = SweepConfig.from_dict(parse_config_file(small_ini), out_dir=tmp_path)
        (tmp_path / "run_eps_0.1.csv").mkdir()
        with pytest.raises(IsADirectoryError):
            run_sweep(cfg)

    def test_run_failure_exit_code(self, tmp_path):
        bad = tmp_path / "bad.ini"
        bad.write_text("[sweep]\namplitude = 10.0\n[solver]\nt_final = 0.05\n"
                       "[grid]\nn_x = 32\nn_v = 16\n")
        # amplitude 10 violates positivity of the reconstructed distribution
        assert main(["--config", str(bad), "--out", str(tmp_path), "--quiet",
                     "run"]) == EXIT_RUN_FAILURE

    def test_report_without_sweep_is_config_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "--quiet", "report"]) == EXIT_CONFIG_ERROR

    @pytest.mark.parametrize("text, message", [
        ("{}", "has no 'config_hash'"),
        ("[]", "has no 'config_hash'"),
        ('{"config_hash": "x", "rates": {}}', "has no 'per_epsilon'"),
        ("not json", "is not JSON: Expecting value"),
        ('{"config_hash": "x", "per_epsilon": [{"epsilon": 0.1}], "rates": {}}',
         "has no number 'sup_moment_error' in per_epsilon[0]"),
        ('{"config_hash": "x", "per_epsilon": [], "rates": {"a": 5}}',
         "has rates['a'] that is not a list of numbers"),
        ('{"config_hash": "x", "per_epsilon": {"epsilon": 0.1}, "rates": {}}',
         "has a 'per_epsilon' that is not a list"),
        # JSON true and false are not numbers, though Python's bool is an int
        ('{"config_hash": "x", "per_epsilon": [{"epsilon": true, "sup_moment_error": false, '
         '"sup_field_error": 1, "pointwise_sup_error": 1, "micro_time_integral": 1}], '
         '"rates": {}}',
         "has no number 'epsilon' in per_epsilon[0]"),
        ('{"config_hash": "x", "per_epsilon": [], "rates": {"sup_moment_error": [true]}}',
         "has rates['sup_moment_error'] that is not a list of numbers"),
    ])
    def test_report_of_bad_summary_is_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "summary.json"
        path.write_text(text)
        assert main(["--out", str(tmp_path), "--quiet", "report"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert f"sweep summary {path} " in err and message in err
        assert not (tmp_path / "metrics.csv").exists()

    def test_report_of_unreadable_summary_is_config_error(self, tmp_path, capsys):
        # a summary.json that exists but cannot be read, such as a directory
        path = tmp_path / "summary.json"
        path.mkdir()
        assert main(["--out", str(tmp_path), "--quiet", "report"]) == EXIT_CONFIG_ERROR
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: cannot read sweep summary {path}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "metrics.csv").exists()

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\nn_x = 32\n",
        "[DEFAULT]\nn_x = 32\n[grid]\nn_v = 16\n",
        "[grid]\nn_v = 16\n[DEFAULT]\nn_x = 32\n",
    ], ids=["alone", "first", "last"])
    def test_default_section_is_config_error(self, tmp_path, capsys, text):
        # DEFAULT would otherwise be ignored, or leak its keys into the
        # other sections as unknown keys of theirs
        ini = tmp_path / "case.ini"
        ini.write_text(text)
        code = main(["--config", str(ini), "--out", str(tmp_path / "out"), "--quiet", "run"])
        assert code == EXIT_CONFIG_ERROR
        assert capsys.readouterr().err == (
            "configuration error: unknown config section [DEFAULT]\n")
        assert not (tmp_path / "out").exists()


TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


class TestBenchmarkTracer:
    """The benchmark tracer wraps package names from outside the package;
    a renamed or deleted name would drop its span without an error."""

    def test_targets_resolve_except_the_retired_one(self):
        spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
        tracing = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracing)
        fft = np.fft.rfft
        tracer = tracing.Tracer()
        tracer.install()
        tracer.uninstall()
        # the kinetic step does not call solve_poisson; the fluid
        # reference does, through vpfp.ddp
        assert set(tracer.missing) == {"vpfp.solver.solve_poisson"}
        assert np.fft.rfft is fft  # uninstall restores what install wrapped
