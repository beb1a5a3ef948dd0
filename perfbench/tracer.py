"""Outside-in span tracer for the traced benchmark run.

The tracer replaces public names with timing wrappers from outside the
package, so nothing under ``src/`` changes.  Each name is wrapped where it
is looked up: ``vpfp.solver.moments`` and ``vpfp.ddp.solve_poisson`` are
separate call sites even where they bind the same function.  Step methods
are wrapped on the class.  A name that no longer exists is recorded as
missing and every metric that depends on it is reported absent.

Spans live in flat lists while the run goes on; ``layer_samples`` turns
them into self times (span duration minus the time covered by child spans)
and counts once the run has ended.
"""

from __future__ import annotations

import functools
import importlib
import time

# (module, attribute path, span name)
TARGETS = (
    ("vpfp.harness", "run_sweep", "harness.run_sweep"),
    ("vpfp.harness", "run_single", "harness.run_single"),
    ("vpfp.harness", "make_initial_data", "harness.initial_data"),
    ("vpfp.harness", "write_reports_csv", "harness.io"),
    ("vpfp.harness", "write_summary", "harness.io"),
    ("vpfp.harness", "run", "solver.run"),
    ("vpfp.harness", "ddp_run", "ddp.run"),
    ("vpfp.harness", "energy_functionals", "diagnostics.energy"),
    ("vpfp.harness", "limit_error", "diagnostics.limit_error"),
    ("vpfp.solver", "VpfpStepper.step_euler", "solver.step_euler"),
    ("vpfp.solver", "VpfpStepper.step_bdf2", "solver.step_bdf2"),
    ("vpfp.solver", "vpfp_rhs", "operators.vpfp_rhs"),
    ("vpfp.solver", "moments", "operators.moments"),
    ("vpfp.solver", "solve_poisson", "operators.solve_poisson"),
    ("vpfp.ddp", "solve_poisson", "operators.solve_poisson"),
    ("vpfp.ddp", "ddp_step", "ddp.step"),
    ("vpfp.spectral", "HermiteBasis.functions", "spectral.hermite_table"),
)
# numpy.fft transforms, counted (not timed) against the innermost open span
FFT_NAMES = ("fft", "ifft", "rfft", "irfft")

STEP_SPANS = ("solver.step_euler", "solver.step_bdf2")
# spans whose per-call self times are reported as they are
PER_CALL_SPANS = (
    "operators.vpfp_rhs", "operators.moments", "operators.solve_poisson", "ddp.step",
    "diagnostics.energy", "diagnostics.limit_error", "harness.initial_data",
    "spectral.hermite_table",
)
# every sample list and total of layer_samples -> the span names it needs
NEEDS = {
    **{name: (name,) for name in PER_CALL_SPANS},
    "solver.warm_step": STEP_SPANS,
    "solver.cold_step": STEP_SPANS,
    "solver.steps": STEP_SPANS,
    "ddp.steps": ("ddp.step",),
    "diagnostics.samples": ("diagnostics.energy",),
    "harness.io_ms": ("harness.io",),
    # kinetic-step transforms: inside solver.run, outside diagnostics
    "operators.fft_calls": STEP_SPANS + ("solver.run", "diagnostics.energy"),
}

NAME, PARENT, START, END, FFTS = range(5)


def _resolve(owner, path: str):
    *head, attr = path.split(".")
    for part in head:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Span recorder; ``install`` wraps TARGETS, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, start, end, fft calls]
        self._stack = [-1]
        self._saved: list[tuple] = []
        self.installed: set[str] = set()
        self.missing: list[str] = []

    def _span(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, stack[-1], clock(), 0.0, 0])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][END] = clock()

        return traced

    def _counter(self, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack[-1] >= 0:
                spans[stack[-1]][FFTS] += 1
            return fn(*args, **kwargs)

        return counted

    def _replace(self, owner, attr, new):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        for module, path, name in TARGETS:
            try:
                owner, attr = _resolve(importlib.import_module(module), path)
                fn = owner.__dict__[attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{module}.{path}")
                continue
            self._replace(owner, attr, self._span(fn, name))
            self.installed.add(name)
        fft = importlib.import_module("numpy.fft")
        for attr in FFT_NAMES:
            self._replace(fft, attr, self._counter(getattr(fft, attr)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_samples(tracer: Tracer) -> dict:
    """Self times (ms) per call, per-entry totals and counts for one run."""
    spans = tracer.spans
    n = len(spans)
    dur = [(s[END] - s[START]) * 1e3 for s in spans]
    self_ms = dur[:]
    for i in range(n):
        parent = spans[i][PARENT]
        if parent >= 0:
            self_ms[parent] -= dur[i]

    def ancestor_names(i):
        parent = spans[i][PARENT]
        while parent >= 0:
            yield spans[parent][NAME]
            parent = spans[parent][PARENT]

    samples = {key: [] for key in PER_CALL_SPANS + ("solver.warm_step", "solver.cold_step")}
    totals = dict.fromkeys(("solver.steps", "ddp.steps", "diagnostics.samples",
                            "harness.io_ms", "operators.fft_calls"), 0)
    seen_kind = set()  # (parent span, step kind): the first step of a kind is cold
    for i, (name, parent, _, _, ffts) in enumerate(spans):
        if name in STEP_SPANS:
            totals["solver.steps"] += 1
            warm = (parent, name) in seen_kind
            seen_kind.add((parent, name))
            samples["solver.warm_step" if warm else "solver.cold_step"].append(self_ms[i])
        elif name in samples:
            samples[name].append(self_ms[i])
        if name == "ddp.step":
            totals["ddp.steps"] += 1
        elif name == "diagnostics.energy":
            totals["diagnostics.samples"] += 1
        elif name == "harness.io":
            totals["harness.io_ms"] += self_ms[i]
        if ffts:
            chain = [name, *ancestor_names(i)]
            if "solver.run" in chain and not any(c.startswith("diagnostics.") for c in chain):
                totals["operators.fft_calls"] += ffts

    absent = sorted(key for key, needs in NEEDS.items()
                    if not all(name in tracer.installed for name in needs))
    return {
        "samples_ms": {k: v for k, v in samples.items() if k not in absent},
        "totals": {k: v for k, v in totals.items() if k not in absent},
        "self_sum_ms": sum(self_ms),
        "min_self_ms": min(self_ms) if self_ms else 0.0,
        "absent": absent,
        "missing_targets": tracer.missing,
    }
