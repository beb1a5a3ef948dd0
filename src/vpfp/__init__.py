"""Fourier-Hermite solver for a scaled kinetic Fokker-Planck system with
self-consistent electrostatics, its drift-diffusion limit, and the sweep
harness that measures the convergence between the two."""

__version__ = "0.1.0"
