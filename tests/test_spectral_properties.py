"""Property tests for the periodic spectral layer, the flow built on it and
the FFT-based asymmetry index alpha_distance.

Grids are drawn in dims 1-3 with odd and even sizes; the explicit examples
make sure both parities of the last (half-spectrum) axis are always run.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okstab.flow import FlowState, diffuse_energy, flow_step
from okstab.shapes import alpha_distance
from okstab.torus import ScalarField, make_grid, solve_poisson_periodic
from oracles import grid_coords, laplacian

sizes_st = st.integers(1, 3).flatmap(
    lambda d: st.lists(st.integers(8, 13), min_size=d, max_size=d)).map(tuple)
seed_st = st.integers(0, 2**32 - 1)
prop = settings(derandomize=True, deadline=None, max_examples=20)
examples = [example(sizes=s, seed=1) for s in
            [(8,), (9,), (10, 8), (9, 11), (8, 9, 10), (11, 10, 9)]]


def _with_examples(f):
    for ex in examples:
        f = ex(f)
    return f


def _field(sizes, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(len(sizes), sizes)
    return ScalarField(g, 0.9 * np.tanh(2 * rng.standard_normal(sizes)) + 0.2)


def _energy_oracle(u, eps, gamma0):
    # Parseval over the full complex spectrum, every mode counted once
    ks = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in u.shape], indexing="ij")
    ksq = sum(k * k for k in ks)
    uh2 = np.abs(np.fft.fftn(u)) ** 2
    ntot = u.size
    nz = ksq > 0
    grad = 4.0 * np.pi**2 * np.sum(ksq * uh2) / ntot**2
    nl = np.sum(uh2[nz] / ksq[nz]) / (4.0 * np.pi**2 * ntot**2)
    well = np.mean((u**2 - 1.0) ** 2)
    return eps * grad + well / eps + gamma0 * nl


@prop
@given(sizes=sizes_st, seed=seed_st)
@_with_examples
def test_energy_matches_full_spectrum_oracle(sizes, seed):
    u = _field(sizes, seed)
    for eps, gamma0 in ((0.1, 0.0), (0.05, 40.0)):
        want = _energy_oracle(u.values, eps, gamma0)
        assert abs(diffuse_energy(u, eps, gamma0) - want) <= 1e-12 * want


@prop
@given(sizes=sizes_st, seed=seed_st)
@_with_examples
def test_energy_translation_invariant(sizes, seed):
    u = _field(sizes, seed)
    shift = np.random.default_rng(seed).integers(0, min(sizes), size=len(sizes))
    moved = ScalarField(u.grid, np.roll(u.values, tuple(shift),
                                        axis=tuple(range(len(sizes)))))
    e0 = diffuse_energy(u, 0.07, 25.0)
    assert abs(diffuse_energy(moved, 0.07, 25.0) - e0) <= 1e-13 * e0


def _check_cached_spectra(u, state):
    # a field built from values caches the transform of its frozen values; a
    # flow state keeps the spectrum its values were built from, which the
    # transform of those values matches to round-off only
    for f in (u, state.u):
        assert not f.values.flags.writeable and not f.spectrum.flags.writeable
    assert np.array_equal(u.spectrum, np.fft.rfftn(u.values))
    v, spec = state.u.values, state.u.spectrum
    assert np.array_equal(v, np.fft.irfftn(spec, s=v.shape, axes=range(v.ndim)))
    assert np.abs(np.fft.rfftn(v) - spec).max() <= 1e-13 * np.abs(spec).max()
    w = state.u.copy()
    assert w.values.flags.writeable and w.spectrum is not spec
    e = diffuse_energy(w, state.epsilon, state.gamma0)
    assert abs(e - state.energy) <= 1e-14 * abs(state.energy)


@prop
@given(sizes=sizes_st, seed=seed_st)
@_with_examples
def test_cached_spectrum_is_the_transform_of_frozen_values(sizes, seed):
    u = _field(sizes, seed)
    state = FlowState(u, epsilon=0.1, gamma0=30.0, dt=1e-3)
    flow_step(state)
    _check_cached_spectra(u, state)


@pytest.mark.parametrize("sizes, forced", [
    ((48, 40), False), ((33, 45), False), ((9, 10, 8), False), ((48, 40), True)])
def test_flow_state_keeps_the_spectrum_it_was_built_from(sizes, forced):
    u = _field(sizes, 5)
    state = FlowState(u, epsilon=0.1, gamma0=30.0, dt=1e-4)
    for _ in range(3):
        flow_step(state)
    if forced:
        state.stabilization = 1e-12    # undersized shift: explicit blow-up
        for _ in range(3):
            state.dt = 10.0
            flow_step(state)
    assert (state.rejections > 0) == forced
    _check_cached_spectra(u, state)


@prop
@given(sizes=sizes_st, seed=seed_st)
@_with_examples
def test_flow_step_conserves_mean(sizes, seed):
    u = _field(sizes, seed)
    state = FlowState(u.copy(), epsilon=0.1, gamma0=30.0, dt=1e-3)
    flow_step(state)
    assert abs(state.u.mean() - u.mean()) <= 1e-12


@prop
@given(sizes=sizes_st, seed=seed_st)
@_with_examples
def test_poisson_residual_band_limited(sizes, seed):
    # a few Fourier modes strictly below the Nyquist frequency of each axis
    rng = np.random.default_rng(seed)
    g = make_grid(len(sizes), sizes)
    xs = grid_coords(g)
    f = np.zeros(sizes)
    for _ in range(4):
        k = [rng.integers(-((n - 1) // 2), (n - 1) // 2 + 1) for n in sizes]
        if not any(k):
            continue
        phase = 2 * np.pi * sum(ki * x for ki, x in zip(k, xs))
        f += rng.normal() * np.cos(phase) + rng.normal() * np.sin(phase)
    f = ScalarField(g, f - f.mean())
    v = solve_poisson_periodic(f)
    res = laplacian(v) + f.values
    assert np.abs(res).max() <= 1e-10 * max(np.abs(f.values).max(), 1e-300)


@prop
@given(sizes=sizes_st, seed=seed_st)
@_with_examples
def test_alpha_is_translation_invariant_pseudometric(sizes, seed):
    rng = np.random.default_rng(seed)
    g = make_grid(len(sizes), sizes)
    axes = tuple(range(len(sizes)))
    e, f, h = (ScalarField(g, np.where(rng.random(sizes) < p, 1.0, -1.0))
               for p in (0.3, 0.5, 0.6))

    def roll(u):
        shift = tuple(int(s) for s in rng.integers(0, sizes))
        return ScalarField(g, np.roll(u.values, shift, axis=axes))

    def cells(a, b):
        # alpha is a whole number of cells times the cell volume
        return round(alpha_distance(a, b)[0] / g.cell_volume)

    assert cells(e, e) == cells(e, roll(e)) == 0
    ef = cells(e, f)
    assert ef == cells(f, e) == cells(roll(e), f) == cells(e, roll(f))
    assert cells(e, h) <= ef + cells(f, h)
    assert cells(f, h) <= ef + cells(e, h)
