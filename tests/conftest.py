from collections import namedtuple

import numpy as np
import pytest

from vpfp.solver import KineticState, run
from vpfp.spectral import HermiteBasis, SpatialGrid, SpectralField

ACCEPTANCE_LINES = []

# the sample times of a kinetic run and its one member's states
Trajectory = namedtuple("Trajectory", "times states")


def record_acceptance(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    ACCEPTANCE_LINES.append(f"criterion {number:2d} [{status}] {description}{suffix}")
    return ok


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in sorted(ACCEPTANCE_LINES):
            terminalreporter.write_line(line)


def member(state, i=0):
    """Member i of a batch state, as a state of its own whose coefficients
    view the batch's."""
    return KineticState(state.time, state.g.with_coeffs(state.g.coeffs[:, i]))


def sampled_run(initial, cfg, sample_interval):
    """solver.run of cfg alone, with an observer that appends each sample's
    one member: the Trajectory of the run's times and of its states."""
    states = []
    times = run(initial, cfg, lambda state: states.append(member(state)),
                sample_interval=sample_interval)
    return Trajectory(times=times, states=states)


def fd_collision_inner_product(basis, n, j):
    """<L psi_n, psi_j> by finite differences on a uniform v-grid.

    Independent of the spectral diagonal: works with u = g / sqrt(M) and the
    conservative three-point stencil for (M u')', then integrates
    -(M u')' u_j dv by trapezoid.
    """
    v = np.linspace(-12.0, 12.0, 100001)
    h = v[1] - v[0]
    m_half = np.exp(-0.5 * ((v[:-1] + v[1:]) / 2) ** 2) / np.sqrt(2 * np.pi)
    sqrt_m = np.exp(-0.25 * v**2) * (2 * np.pi) ** (-0.25)
    table = basis.functions(n_levels=max(n, j) + 1, v=v)
    u_n = table[:, n] / sqrt_m
    u_j = table[:, j] / sqrt_m
    flux_div = np.zeros_like(v)
    flux_div[1:-1] = (m_half[1:] * (u_n[2:] - u_n[1:-1])
                      - m_half[:-1] * (u_n[1:-1] - u_n[:-2])) / h**2
    return np.trapezoid(-flux_div * u_j, v)


@pytest.fixture(scope="session")
def grid():
    return SpatialGrid(n_x=32)


@pytest.fixture(scope="session")
def basis():
    return HermiteBasis(n_v=16)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


FftCall = namedtuple("FftCall", "name out")


@pytest.fixture
def fft_calls(monkeypatch):
    """The numpy.fft transforms called while the test runs, in order: their
    names and the arrays passed as out (None when not given)."""
    calls = []
    for name in ("fft", "ifft", "rfft", "irfft"):
        def counted(*args, _name=name, _transform=getattr(np.fft, name), **kwargs):
            calls.append(FftCall(_name, kwargs.get("out")))
            return _transform(*args, **kwargs)
        monkeypatch.setattr(np.fft, name, counted)
    return calls


# densities that are not one field on the 32-point grid fixture: too short,
# too long, and two rows of the right length; each row has zero mean
WRONG_DENSITY_SHAPES = [(16,), (64,), (2, 32)]


def cosine_of_shape(shape):
    """0.01 cos along the last axis of an array of shape, so every row has
    zero mean."""
    n = shape[-1]
    return np.broadcast_to(0.01 * np.cos(2.0 * np.pi * np.arange(n) / n), shape).copy()


def random_distribution(rng, grid, basis, neutral=True, band_limit=None):
    """Random real-valued distribution field (a Hermite-major half-spectrum)."""
    n_keep = band_limit if band_limit is not None else basis.n_v
    values = rng.standard_normal((grid.n_x, basis.n_v))
    values[:, n_keep:] = 0.0
    coeffs = np.fft.rfft(values.T, norm="forward")
    if neutral:
        coeffs[0, 0] = 0.0
    return SpectralField(grid, basis, coeffs)


def zero_field(grid, basis):
    """The zero field of grid and basis."""
    return SpectralField(grid, basis, np.zeros((basis.n_v, grid.n_half), dtype=complex))


def basis_element(grid, basis, m, n, amplitude=1.0):
    """Real field amplitude * cos(m x) * psi_n (or psi_n alone for m = 0).

    m is taken modulo n_x and folded onto the half-spectrum; the modes
    m = 0 and m = n_x/2 carry the whole amplitude, the others half of it
    (their conjugate mode carries the other half).
    """
    f = zero_field(grid, basis)
    m = min(m % grid.n_x, -m % grid.n_x)
    f.coeffs[n, m] = amplitude if m in (0, grid.n_x // 2) else amplitude / 2.0
    return f
