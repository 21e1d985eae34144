"""Centralized numerical tolerances, solver defaults and the flat
`key=value` file reader.

All modules read their tolerance constants from a single TOLERANCES record
so that accuracy contracts live in one place.  `read_key_values` parses
both `--config` files and shape description files.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # spectral Poisson solvers
    mean_zero: float = 1e-10          # allowed |mean(f)| relative to max(1, sup|f|)

    # Green kernels
    kernel_tail: float = 1e-12        # truncation bound for the lateral mode sum

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
DEFAULT_FIELD_GRID = 256      # per-axis resolution for v_E in boundary sampling
DEFAULT_AXIS_GRID = 512       # 1D resolution for lamella potentials
DEFAULT_Q2_MODES = 2048       # vertical mode cutoff for the graph-shape nonlocal energy


def read_key_values(path: str) -> dict:
    """Flat `key=value` text file as a dict of stripped strings.

    Blank lines and lines starting with `#` or `[` are skipped; any other
    line without `=` is rejected, naming the line.
    """
    from .torus import ValidationError   # torus imports this module
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
