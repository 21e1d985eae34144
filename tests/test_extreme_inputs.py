"""Extreme-input sweeps: public functions drawn log-uniformly across their
whole allowed range must return finite answers, without warnings and
without silent caps, or fail with an error that names its quantities.

Draws are seeded (derandomize) and bounded (max_examples), so the module
stays well under a second.
"""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okstab.config import TOLERANCES
from okstab.energy import graph_energy, lamella_closed_form, optimal_strip_count
from okstab.flow import run_flow, tanh_profile
from okstab.shapes import Droplet, GraphPerturbation, Lamella, boundary_mesh
from okstab.stability import assemble_boundary_form, constrained_min_eig, stability_threshold_gamma
from okstab.torus import (NumericalError, ScalarField, TorusGrid, ValidationError,
                          green2d_self_regularized, green_function_2d,
                          green_kernel_screened, make_grid, solve_poisson_periodic)
from oracles import green2d_screened

sweep = settings(derandomize=True, deadline=None, max_examples=150)


def log_uniform(lo_exp, hi_exp):
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@sweep
@given(q=log_uniform(0, 5).map(round), s=st.floats(-2.0, 2.0))
@example(q=224, s=0.0)        # the cosh/sinh form read 0.0 here
@example(q=227, s=0.5)        # ... and NaN from here on
@example(q=100_000, s=1e-300)
def test_screened_kernel_finite_positive_and_peaked(q, s):
    lam = 2.0 * math.pi * q
    d = min(abs(s) % 1.0, 1.0 - abs(s) % 1.0)
    with np.errstate(all="raise", under="ignore"):
        g = green_kernel_screened(q, s)
        g0 = green_kernel_screened(q, 0.0)
    assert math.isfinite(g) and math.isfinite(g0)
    # the true value exceeds e^{-lam d}/(2 lam), which is a float64 number
    # above zero while lam d < 700; past that it may round to 0
    assert g > 0 if lam * d < 700 else g >= 0
    assert g <= g0


def _strip_count_oracle(m, gamma):
    """Exact argmin (ties -> smaller k) of 2k + c/k^2 over k* - 2 .. k* + 2,
    with the library's float c taken as an exact rational."""
    c = Fraction(gamma * lamella_closed_form(1, m, 1.0).nonlocal_term)
    k_star = math.floor(float(np.cbrt(float(c))))
    return min(range(max(1, k_star - 2), k_star + 3), key=lambda k: (2 * k + c / (k * k), k))


@sweep
@given(m=st.floats(-1.0 + 1e-6, 1.0 - 1e-6), gamma=log_uniform(-6, 30))
@example(m=0.0, gamma=1e30)   # capped at 10 000, where k* = 2.7516e9
@example(m=0.0, gamma=128.0)  # the k = 1 / k = 2 crossover
@example(m=0.0, gamma=1e48)   # k* = 2.75e15, near the 2^52 limit
def test_optimal_strip_count_is_the_exact_argmin(m, gamma):
    assert optimal_strip_count(m, gamma) == _strip_count_oracle(m, gamma)


@sweep
@given(m=st.floats(-1.0 + 1e-6, 1.0 - 1e-6), k=log_uniform(0, 4).map(round))
@example(m=0.0, k=40)      # past a gamma_max = 1e6 cap that once answered "stable"
@example(m=0.0, k=2000)    # a mode scan once took 29 205 modes to a wrong one here
# D(x) = abx - sinh(ax) sinh(bx)/sinh x, summed as written, cancels so far at
# the next example that its gamma_c = pi^3/D falls from k to k + 1
@example(m=1.0 - 1e-6, k=10_000)
def test_threshold_gamma_finite_positive_and_increasing(m, k):
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        lo = stability_threshold_gamma(m, k).gamma_c
        hi = stability_threshold_gamma(m, k + 1).gamma_c
    assert math.isfinite(hi) and 0.0 < lo < hi, (lo, hi)


def _graph_energy_quietly(base, psi):
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        return graph_energy(GraphPerturbation(base, psi), 1.0)


@settings(derandomize=True, deadline=None, max_examples=10)
@given(k=st.integers(1, 3), m=st.floats(-0.95, 0.95),
       n=log_uniform(math.log10(2), math.log10(2048)).map(round),
       amp=st.floats(0.0, 0.999), seed=st.integers(0, 2**16))
@example(k=3, m=0.95, n=2048, amp=0.999, seed=0)
@example(k=2, m=0.5, n=2048, amp=0.3, seed=3)
@example(k=3, m=-0.95, n=129, amp=0.999, seed=1)
@example(k=1, m=-0.95, n=2, amp=0.999, seed=2)
def test_graph_energy_finite_nonnegative_or_names_the_collision(k, m, n, amp, seed):
    # white-noise heights on n nodes, up to amp of the 0.45-gap sample guard
    base = Lamella(k=k, m=m)
    psi = np.random.default_rng(seed).uniform(-1.0, 1.0, (2 * k, n))
    guard = TOLERANCES.graph_collision_factor * base.interface_gap
    try:
        nl = _graph_energy_quietly(base, amp * guard * psi / np.abs(psi).max()).nonlocal_term
    except ValidationError as err:
        assert "collide" in str(err), err
    else:
        assert math.isfinite(nl) and nl >= 0.0, nl
    # a zero psi is the lamella: the B4 sum starts from its closed form
    got = _graph_energy_quietly(base, np.zeros((2 * k, n)))
    want = lamella_closed_form(k, m, 1.0)
    assert got.perimeter == want.perimeter
    assert abs(got.nonlocal_term - want.nonlocal_term) <= 2 * np.spacing(want.nonlocal_term)


def _check_form_and_eigensolve(mesh, gamma):
    """The form and its constrained eigenpair are finite, raise no warning,
    and the eigenvector meets every constraint to 1e-10 of |row| |phi|."""
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        form = assemble_boundary_form(mesh, gamma)
        rep = constrained_min_eig(form)
    phi, C = rep.eigenvector, form.constraints
    assert np.isfinite(form.matrix).all() and math.isfinite(rep.min_eigenvalue)
    assert np.isfinite(phi).all()
    residual = np.abs(C @ phi) / (np.linalg.norm(C, axis=1) * np.linalg.norm(phi))
    assert residual.max() <= 1e-10, residual     # measured <= 9e-16


_FORM_GAMMAS = st.sampled_from([0.0, 1e-12, 1e6, 1e12])
_FORM_NODES = st.sampled_from([64, 65, 97])


@settings(derandomize=True, deadline=None, max_examples=12)
@given(k=st.integers(1, 2), m=st.floats(-0.999, 0.999), n=_FORM_NODES, gamma=_FORM_GAMMAS)
@example(k=1, m=0.999, n=97, gamma=1e12)
@example(k=2, m=-0.999, n=65, gamma=1e-12)
@example(k=1, m=-0.999, n=64, gamma=1e6)
def test_lamella_form_and_eigensolve_finite_and_constrained(k, m, n, gamma):
    _check_form_and_eigensolve(boundary_mesh(Lamella(k=k, m=m), n), gamma)


@settings(derandomize=True, deadline=None, max_examples=2)
@given(r=log_uniform(-3, math.log10(0.49)), n=_FORM_NODES, gamma=_FORM_GAMMAS)
@example(r=1e-3, n=64, gamma=1e12)     # a droplet well inside one cell of the 256^2 grid
@example(r=1e-3, n=97, gamma=1e-12)
@example(r=0.49, n=65, gamma=1e6)      # all but touching itself across the torus
@example(r=0.49, n=97, gamma=0.0)
def test_droplet_form_and_eigensolve_finite_and_constrained(r, n, gamma):
    _check_form_and_eigensolve(boundary_mesh(Droplet((0.3, 0.6), r), n), gamma)


_README_FLOW_START = tanh_profile(Lamella(k=1, m=0.0, axis=-1, dim=2),
                                  make_grid(2, (64, 64)), 0.0625)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(gamma0=log_uniform(20, 308.25))
@example(gamma0=1e20)         # the first failure once read only "rejected 40 times"
@example(gamma0=1e250)        # ... and from here on warned of overflow as well
@example(gamma0=1.7e308)
def test_flow_failure_names_its_quantities(gamma0):
    # the README flow (64^2, eps = 1/16, dt = 1e-3) at gamma0 >= 1e20: the
    # explicit nonlocal term drives every candidate up, or past float range,
    # which counts as a rejection; the error names what it gave up on
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as err:
            run_flow(_README_FLOW_START, 0.0625, gamma0, 1e-3, 3)
    msg = str(err.value)
    for part in ("rejected 40 times", "dt=1.819e-15", "S=", "epsilon=0.0625",
                 f"gamma0={gamma0!r}", "(tolerance 1e-12)"):
        assert part in msg, msg


@settings(derandomize=True, deadline=None, max_examples=25)
@given(gamma0=log_uniform(0, 308.25), dt=log_uniform(-3, 308.25))
@example(gamma0=1e10, dt=1e300)    # dt 2 gamma0 L^-1 overflows in the multipliers
@example(gamma0=53.3, dt=1e300)    # the README flow at an absurd step: it still steps
def test_flow_at_any_step_size_steps_or_names_its_quantities(gamma0, dt):
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        try:
            st = run_flow(_README_FLOW_START, 0.0625, gamma0, dt, 3)
        except NumericalError as err:
            assert "(tolerance 1e-12)" in str(err) and f"gamma0={gamma0!r}" in str(err)
        else:
            assert all(math.isfinite(e) for (_, _, e) in st.energy_history)


def _quietly(fn, *args):
    with warnings.catch_warnings(), np.errstate(all="raise", under="ignore"):
        warnings.simplefilter("error")
        return fn(*args)


def _torus_offset(x, y) -> np.ndarray:
    """x - y folded into [-1/2, 1/2]^2 in exact rational arithmetic, rounded once."""
    return np.array([float((Fraction(a) - Fraction(b) + Fraction(1, 2)) % 1 - Fraction(1, 2))
                     for a, b in zip(x, y)])


_COORDS = st.tuples(st.floats(), st.floats())      # every float, inf and nan too


@sweep
@given(x=_COORDS, y=_COORDS)
@example(x=(1e308, 0.1), y=(-1e308, 0.2))     # x - y overflowed: "coincident points"
@example(x=(-1.7976931348623157e308, 0.75), y=(1.7976931348623157e308, 0.25))
@example(x=(-1e-20, 0.5), y=(0.0, 0.5))       # 1e-20 apart across the seam
@example(x=(4.36e-40, 0.0), y=(-7.9e-77, 0.0))
@example(x=(1e20, 0.5), y=(0.3, 0.5))         # x - y would round away y's 0.3
@example(x=(3.0, 0.5), y=(-7.0, 0.5))
@example(x=(0.25, float("nan")), y=(0.5, 0.5))
@example(x=(0.0, 0.0), y=(0.0, 2.7e-280))     # |z|^2 underflows: named as coincident
@example(x=(1.0 - 2.0**-53, 0.5), y=(-2.0**-54, 0.5))   # rounds away across the seam
@example(x=(0.0, 0.0), y=(0.0, 1e-150))       # |z|^2 is subnormal
def test_green_function_finite_or_names_the_coincidence(x, y):
    if not np.isfinite(x + y).all():
        with pytest.raises(ValidationError, match="finite coordinates"):
            _quietly(green_function_2d, x, y)
        return
    d = _torus_offset(x, y)
    r = float(np.hypot(*d))
    try:
        g = _quietly(green_function_2d, x, y)
    except ValidationError as err:
        # a torus offset under an ulp of 2 may round away where x - y crosses
        # the seam, and |z|^2 underflows to 0 under 1.6e-162
        assert "coincident" in str(err) and r < 2.3e-16, (r, err)
        return
    assert math.isfinite(g)
    if r >= 0.05:      # the lateral-mode oracle cancels nearer in
        assert abs(g - green2d_screened(d, 0.0 * d)) <= 1e-14
    else:              # G = -log r / (2 pi) + H0 + O(r^2); x - y rounds by 2.3e-16
        assert abs(g + math.log(r) / (2 * math.pi) - green2d_self_regularized()) \
            <= r * r + 1e-14 + 1e-16 / r


@sweep
@given(amp=st.floats(0.0, 1.7976931348623157e308),
       sizes=st.sampled_from([(16,), (16, 12), (9, 8, 10)]), seed=st.integers(0, 2**16),
       dipole=st.booleans())
@example(amp=1e308, sizes=(16, 12), seed=0, dipole=True)   # once "field contains non-finite values"
@example(amp=1.7976931348623157e308, sizes=(16, 12), seed=1, dipole=False)
@example(amp=5e-324, sizes=(16,), seed=2, dipole=True)
def test_poisson_solve_finite_and_linear_or_names_the_overflow(amp, sizes, seed, dipole):
    # a +-amp dipole on two seeded cells, or seeded noise of peak amp less its
    # mean; v is linear in f, so it is amp times the solve for the unit source
    grid = make_grid(len(sizes), sizes)
    rng = np.random.default_rng(seed)
    unit = np.zeros(grid.num_cells)
    if dipole:
        unit[rng.choice(grid.num_cells, 2, replace=False)] = (1.0, -1.0)
    else:
        unit = rng.standard_normal(grid.num_cells)
        unit = (unit - unit.mean()) / np.abs(unit - unit.mean()).max()
    unit = unit.reshape(grid.sizes)
    try:
        v = _quietly(solve_poisson_periodic, ScalarField(grid, amp * unit))
    except NumericalError as err:
        assert f"max |f| = {np.abs(amp * unit).max():.3e}" in str(err), err
        assert amp > 1e306, amp     # only a source near float range overflows
        return
    assert np.isfinite(v.values).all()
    want = solve_poisson_periodic(ScalarField(grid, unit)).values
    if amp >= 1e-290:  # below that v's values are subnormal, and lose digits
        assert np.abs(v.values / amp - want).max() <= 1e-12 * np.abs(want).max()


_SIZE = st.one_of(st.integers(-2**70, 2**70), st.floats(), st.sampled_from(
    [np.int64(16), np.int32(8), np.uint8(9), True, "16", None, 16.0]))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(dim=st.one_of(st.integers(-2, 5), st.sampled_from([2.0, np.int64(2), None])),
       sizes=st.lists(_SIZE, max_size=4), as_list=st.booleans())
@example(dim=2, sizes=[64.5, 64], as_list=False)  # once a grid of 4128.0 cells
@example(dim=2, sizes=[64, 64], as_list=True)     # once a grid ksq() could not hash
@example(dim=3, sizes=[2**70, 8, 8], as_list=False)
def test_grid_is_built_normalised_or_names_its_sizes(dim, sizes, as_list):
    args = (dim, sizes if as_list else tuple(sizes))
    ok_dim = isinstance(dim, (int, np.integer)) and dim in (1, 2, 3)
    ok_sizes = all(isinstance(n, (int, np.integer)) and n >= 8 for n in sizes)
    for build in (TorusGrid, make_grid):
        if not (ok_dim and ok_sizes and len(sizes) == dim):
            with pytest.raises(ValidationError, match="dim must be" if not ok_dim else "size"):
                _quietly(build, *args)
            continue
        grid = _quietly(build, *args)
        assert grid.sizes == tuple(int(n) for n in sizes)
        assert all(type(n) is int for n in grid.sizes)
        twin = TorusGrid(int(dim), tuple(int(n) for n in sizes))
        assert grid == twin and hash(grid) == hash(twin)
        assert grid.num_cells == math.prod(grid.sizes) and 0.0 < grid.cell_volume <= 1.0 / 8
