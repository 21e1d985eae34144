"""Independent oracles shared by the test modules."""

import numpy as np

from okstab.shapes import (GraphPerturbation, Lamella, periodic_derivative,
                           resample_periodic)
from okstab.torus import ScalarField, make_grid


def lamella_source_field(shape: Lamella, n: int) -> ScalarField:
    """Band-limited representation of u_L - m on an n-point axis grid.

    Exact Fourier coefficients of the indicator difference, truncated to the
    grid band; avoids the aliasing of raw +-1 sampling.  1D field along the
    lamella axis.
    """
    grid = make_grid(1, (n,))
    a = shape.a
    k = shape.k
    nu, = grid.half_wavenumbers()
    c = np.zeros(len(nu), dtype=complex)
    nz = nu != 0
    nn = nu[nz]
    # sum over strips: k identical cells, nonzero only on multiples of k
    cell = np.where(np.isclose(nn % k, 0),
                    (1.0 - np.exp(-2j * np.pi * nn * a / k)) / (2j * np.pi * nn), 0.0)
    c[nz] = 2.0 * k * cell
    phase = np.exp(2j * np.pi * nu * (0.5 / n))
    return ScalarField._adopt(grid, grid.irfft(c * n * phase))


def graph_perimeter_resampled(gp: GraphPerturbation) -> float:
    """Perimeter of a graph perturbation with psi resampled to 2048 nodes and
    differentiated there (two rfft/irfft pairs)."""
    dpsi = periodic_derivative(resample_periodic(gp.psi, 2048))
    return float(np.mean(np.sqrt(1.0 + dpsi**2), axis=1).sum())
