"""Centralized numerical tolerances, solver defaults, the package's error
types, the `OKSTAB_THREADS` cap and the flat `key=value` file reader.

All modules read their tolerance constants from a single TOLERANCES record
so that accuracy contracts live in one place.  `read_key_values` parses
both `--config` files and shape description files.  This module imports no
numpy, so the package applies the thread cap from here before numpy loads.
"""

import os
import sys
import warnings
from dataclasses import dataclass


class ValidationError(ValueError):
    """Raised on invalid inputs (bad shapes, grids, parameters)."""


class NumericalError(RuntimeError):
    """Raised on numerical failure (non-convergence, lost accuracy)."""


@dataclass(frozen=True)
class Tolerances:
    # spectral Poisson solvers
    mean_zero: float = 1e-10          # allowed |mean(f)| relative to max(1, sup|f|)

    # geometry
    normal_unit: float = 1e-12
    graph_collision_factor: float = 0.45   # max|psi| < factor * interface gap

    # eigen machinery
    matrix_symmetry: float = 1e-12

    # flow
    energy_increase_rel: float = 1e-12
    mass_drift: float = 1e-12


TOLERANCES = Tolerances()

# grid defaults
MIN_GRID_SIZE = 8
DEFAULT_FIELD_GRID = 256      # per-axis raster of a grid potential in 1D and 2D
DEFAULT_Q2_MODES = 512        # graph nonlocal remainder modes, not an argument (tail ~Q^-5)


def read_key_values(path: str) -> dict:
    """Flat `key=value` text file as a dict of stripped strings.

    Blank lines and lines starting with `#` or `[` are skipped; any other
    line without `=` is rejected, naming the line.
    """
    rec = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith(("#", "[")):
                continue
            key, sep, val = line.partition("=")
            if not sep:
                raise ValidationError(f"bad key=value line in {path}: {line!r}")
            rec[key.strip()] = val.strip()
    return rec


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def starting_cli() -> bool:
    """True while the `okstab` script or `python -m okstab.cli` imports the
    package; runpy keeps argv[0] at "-m" until it has found the module."""
    return (os.path.basename(sys.argv[0]) == "okstab"
            or (sys.argv[0] == "-m" and "okstab.cli" in sys.orig_argv))


def apply_thread_cap():
    """Cap BLAS/OpenMP threads at $OKSTAB_THREADS, if set.

    The libraries read their variables once, when numpy loads them, so the
    package calls this before its first numpy import.  A variable that is
    already set wins; a cap that can no longer act is reported.
    """
    cap = os.environ.get("OKSTAB_THREADS")
    if not cap:
        return
    if not cap.isdigit() or int(cap) < 1:
        raise ValidationError(
            f"OKSTAB_THREADS must be a positive integer, got {cap!r}")
    unset = [var for var in THREAD_VARS if var not in os.environ]
    if unset and "numpy" in sys.modules:
        warnings.warn("OKSTAB_THREADS has no effect: numpy was imported "
                      "before okstab", RuntimeWarning)
    for var in unset:
        os.environ[var] = cap
