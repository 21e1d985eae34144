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
from okstab.torus import (NumericalError, ValidationError, green_kernel_screened,
                          make_grid)

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
