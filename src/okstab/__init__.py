"""okstab: sharp-interface energies, stability analysis, and a conserved
phase-field flow for periodic two-phase configurations."""

__version__ = "0.1.0"

from . import config

try:
    config.apply_thread_cap()   # before the first numpy import below
except config.ValidationError as exc:
    if config.starting_cli():
        raise SystemExit(f"error: {exc}") from None    # one line, exit 1
    raise

from .torus import (NumericalError, ScalarField, TorusGrid, ValidationError,
                    dirichlet_energy, green_function_2d, green_kernel_screened,
                    make_grid, solve_poisson_periodic)
from .shapes import (BoundaryMesh, Droplet, DropletSet, GraphPerturbation,
                     Lamella, alpha_distance, boundary_mesh, graph_alpha, lamella,
                     perimeter_exact, perimeter_grid, rasterize)
from .energy import (EnergyBreakdown, el_residual, graph_energy,
                     isoperimetric_compare, lamella_closed_form,
                     nonlocal_lipschitz_check, optimal_strip_count,
                     strip_disc_crossing)
from .stability import (LamellaModeMatrix, QuadraticFormMatrix,
                        StabilityReport, assemble_boundary_form,
                        constrained_min_eig, finite_difference_check,
                        lamella_min_eigenvalue, lamella_mode_matrix,
                        stability_threshold_gamma, stability_threshold_k)
from .flow import (FlowState, diffuse_energy, flow_step, profile_constant,
                   run_flow, tanh_profile)
