import numpy as np
import pytest

from okstab.flow import (GAMMA0_FACTOR, FlowState, diffuse_energy, flow_step,
                         flow_residual, profile_constant, run_flow,
                         sharp_gamma_to_gamma0, tanh_profile)
from okstab.shapes import Lamella, lamella, rasterize
from okstab.torus import (NumericalError, ScalarField, ValidationError,
                          make_grid)


def test_gamma_conversion():
    assert sharp_gamma_to_gamma0(3.0) == 16.0
    assert GAMMA0_FACTOR == 16.0 / 3.0


def test_uniform_state_is_fixed_point():
    g = make_grid(2, (32, 32))
    u0 = ScalarField(g, 0.4 * np.ones(g.sizes))
    st = FlowState(u0, epsilon=0.1, gamma0=2.0, dt=1e-4)
    assert flow_residual(st) == 0.0
    e0 = st.energy
    flow_step(st)
    assert np.abs(st.u.values - 0.4).max() < 1e-14
    assert st.energy == pytest.approx(e0, rel=1e-14)


def test_mass_conserved_exactly():
    rng = np.random.default_rng(0)
    g = make_grid(2, (64, 64))
    u0 = ScalarField(g, np.tanh(rng.standard_normal(g.sizes)) + 0.1)
    m0 = u0.mean()
    st = run_flow(u0, epsilon=0.1, gamma0=10.0, dt=1e-4, max_steps=50)
    assert abs(st.u.mean() - m0) < 1e-13


def test_unconverged_history_has_one_row_per_step():
    rng = np.random.default_rng(2)
    g = make_grid(2, (32, 32))
    u0 = ScalarField(g, 0.8 * np.tanh(rng.standard_normal(g.sizes)))
    st = run_flow(u0, epsilon=0.1, gamma0=5.0, dt=1e-4, max_steps=5,
                  stop_tol=1e-12)
    steps = [row[0] for row in st.energy_history]
    assert steps == list(range(st.step + 1))
    assert len(st.energy_history) == st.step + 1 == 6
    assert st.stop_reason == "max_steps"


def test_stop_reason():
    g = make_grid(1, (64,))
    u0 = ScalarField(g, 0.3 + 0.01 * np.cos(2 * np.pi * g.axis_coords(0)))
    assert FlowState(u0, 0.1, 1.0).stop_reason is None
    st = run_flow(u0, 0.1, 1.0, dt=1e-2, max_steps=500, stop_tol=1e-6)
    assert st.stop_reason == "converged" and st.step < 500
    st = run_flow(u0, 0.1, 1.0, dt=1e-2, max_steps=30)
    assert st.stop_reason == "max_steps" and st.step == 30


def _reference_step(u, eps, gamma0, S, dt):
    # the stabilized step on the full complex spectrum, with the Poisson
    # solve and the mean projection done in real space
    ks = np.meshgrid(*[np.fft.fftfreq(n, 1.0 / n) for n in u.shape], indexing="ij")
    ksq = sum(k * k for k in ks)
    nl = (4.0 / eps) * u * (u**2 - 1.0)
    fh = np.fft.fftn(u - u.mean())
    vh = np.zeros_like(fh)
    vh[ksq > 0] = fh[ksq > 0] / (4.0 * np.pi**2 * ksq[ksq > 0])
    nl = nl + 2.0 * gamma0 * np.fft.ifftn(vh).real
    nl = nl - nl.mean()
    lam = 2.0 * eps * 4.0 * np.pi**2 * ksq
    return np.fft.ifftn((np.fft.fftn(u) * (1.0 + dt * S) - dt * np.fft.fftn(nl))
                        / (1.0 + dt * (lam + S))).real


@pytest.mark.parametrize("sizes", [(48, 40), (33, 45)])
def test_step_matches_complex_reference(sizes):
    rng = np.random.default_rng(11)
    g = make_grid(2, sizes)
    u0 = ScalarField(g, 0.9 * np.tanh(2 * rng.standard_normal(sizes)) + 0.1)
    st = FlowState(u0.copy(), epsilon=0.1, gamma0=30.0, dt=1e-4)
    flow_step(st)
    assert st.rejections == 0
    want = _reference_step(u0.values, 0.1, 30.0, st.stabilization, 1e-4)
    assert np.abs(st.u.values - want).max() <= 1e-12 * np.abs(want).max()


def test_energy_monotone_decrease():
    rng = np.random.default_rng(1)
    g = make_grid(2, (64, 64))
    u0 = ScalarField(g, 0.8 * np.tanh(rng.standard_normal(g.sizes)))
    st = run_flow(u0, epsilon=0.08, gamma0=5.0, dt=1e-4, max_steps=100)
    es = [e for (_, _, e) in st.energy_history]
    assert all(b <= a * (1 + 1e-12) + 1e-12 for a, b in zip(es, es[1:]))
    assert es[-1] < es[0]


def test_profile_constant():
    c = profile_constant()
    assert abs(c - 8.0 / 3.0) < 0.01 * 8.0 / 3.0


def test_profile_constant_underresolved_rejected():
    with pytest.raises(ValidationError):
        profile_constant(epsilon_list=(0.001,), n=256)


def test_two_interface_additivity():
    # relaxed k=2 strip energy is twice the k=1 strip energy (4 interfaces
    # vs 2) at the same eps, gamma0 = 0
    g = make_grid(1, (2048,))
    eps = 0.02
    energies = []
    for k in (1, 2):
        u0 = tanh_profile(Lamella(k=k, m=0.0, axis=0, dim=1), g, eps)
        st = run_flow(u0, eps, 0.0, dt=eps * 1e-2, max_steps=3000,
                      stop_tol=1e-8)
        energies.append(st.energy)
    assert energies[1] == pytest.approx(2 * energies[0], rel=1e-3)


def test_translation_invariance_of_cost():
    g = make_grid(1, (1024,))
    eps = 0.03
    u0 = tanh_profile(Lamella(k=1, m=0.0, axis=0, dim=1), g, eps)
    u1 = ScalarField(g, np.roll(u0.values, 117))
    e0 = diffuse_energy(u0, eps, 0.0)
    e1 = diffuse_energy(u1, eps, 0.0)
    assert e0 == pytest.approx(e1, rel=1e-13)


def test_stable_lamella_returns_after_noise():
    # gamma well below threshold: a noisy tanh lamella relaxes back
    g = make_grid(2, (64, 64))
    eps = 0.0625
    gamma0 = sharp_gamma_to_gamma0(10.0)
    u0 = tanh_profile(lamella(1, 0.0), g, eps)
    rng = np.random.default_rng(7)
    noisy = u0.values + 0.02 * rng.standard_normal(g.sizes)
    noisy = noisy - noisy.mean() + u0.mean()
    st = run_flow(ScalarField(g, noisy), eps, gamma0, dt=1e-3, max_steps=1500)
    thresh = ScalarField(g, np.where(st.u.values >= 0, 1.0, -1.0))
    ref = rasterize(lamella(1, 0.0), g)
    from okstab.shapes import alpha_distance
    val, _ = alpha_distance(thresh, ref)
    assert val * g.sizes[0] * g.sizes[1] <= 64  # at most one row of cells


def test_step_rejection_halves_dt():
    g = make_grid(1, (256,))
    u0 = ScalarField(g, np.tanh(np.sin(2 * np.pi * g.axis_coords(0)) * 5))
    st = FlowState(u0, epsilon=0.05, gamma0=0.0, dt=1e-4)
    flow_step(st)  # normal step so the next one skips the refresh
    st.stabilization = 1e-12  # stale/undersized shift -> explicit blow-up
    e_before = st.energy
    flow_step(st, dt=10.0)
    assert st.dt < 10.0
    assert st.rejections > 0
    assert st.energy <= e_before + 1e-12


def test_invalid_parameters():
    g = make_grid(1, (64,))
    u = ScalarField(g, np.zeros(64))
    with pytest.raises(ValidationError):
        FlowState(u, epsilon=-1.0, gamma0=0.0)
    with pytest.raises(ValidationError):
        FlowState(u, epsilon=0.1, gamma0=-1.0)
    st = FlowState(u, epsilon=0.1, gamma0=0.0)
    with pytest.raises(ValidationError):
        flow_step(st, dt=0.0)
