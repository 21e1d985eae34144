import tracemalloc

import numpy as np
import pytest

from okstab.flow import (GAMMA0_FACTOR, FlowState, _flow_symbols, diffuse_energy,
                         flow_step, flow_residual, profile_constant, run_flow,
                         sharp_gamma_to_gamma0, tanh_profile)
from okstab.shapes import Lamella, lamella, rasterize
from okstab.torus import (NumericalError, ScalarField, ValidationError,
                          make_grid)
from oracles import count_transforms, reference_flow, traced_peak


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


def test_run_state_starts_with_the_flow_and_is_not_set_at_construction():
    u = ScalarField(make_grid(1, (16,)), np.full(16, 0.25))
    for name in ("time", "step", "energy_history", "stabilization", "mean0",
                 "rejections", "stop_reason"):
        with pytest.raises(TypeError, match=name):
            FlowState(u, 0.1, 0.0, **{name: None})
    st = FlowState(u, 0.1, 0.0)
    assert (st.time, st.step, st.stabilization, st.rejections, st.stop_reason) \
        == (0.0, 0, 0.0, 0, None)
    assert st.mean0 == 0.25 and st.energy_history == [(0, 0.0, st.energy)]


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


class _MultiplierOracle:
    """The step written out with every transform and symbol rebuilt, in the
    form uhat' = A uhat - B what with what = rfftn(u(u^2 - 1)),
    A = (1 + dt S - dt 2 gamma0 L^-1) / (1 + dt (lam + S)), A_0 = 1, and
    B = (4/eps) dt / (1 + dt (lam + S)), B_0 = 0.  Each candidate is built
    from its spectrum, priced from it as half the full-spectrum sum of
    (lam + 2 gamma0 L^-1) |uhat|^2 / N^2 (the powers scaled first, the zero
    and (even n) Nyquist columns counted once), and once accepted hands it
    to the next step: 2 real FFTs per accepted step, 1 per rejected
    candidate."""

    def __init__(self, shape, eps, gamma0):
        ks = [np.fft.fftfreq(n, 1.0 / n) for n in shape[:-1]]
        ks.append(np.fft.rfftfreq(shape[-1], 1.0 / shape[-1]))
        ksq = sum(k * k for k in np.meshgrid(*ks, indexing="ij", sparse=True))
        inv = np.divide(1.0, 4.0 * np.pi**2 * ksq, out=np.zeros_like(ksq), where=ksq > 0)
        self.lam = 2.0 * eps * 4.0 * np.pi**2 * ksq
        self.nonlocal_sym = gamma0 * (2.0 * inv)
        self.symbol = self.lam + self.nonlocal_sym
        self.shape, self.eps = shape, eps

    def irfft(self, a):
        return np.fft.irfftn(a, s=self.shape, axes=tuple(range(len(self.shape))))

    def energy(self, u, uh):
        power = (np.square(uh.real) + np.square(uh.imag)) * (2.0 / u.size**2)
        power[..., 0] *= 0.5
        if self.shape[-1] % 2 == 0:
            power[..., -1] *= 0.5
        well = np.square(u) - 1.0
        return (0.5 * float(np.vdot(self.symbol, power))
                + float(np.vdot(well, well)) / (self.eps * u.size))

    def residual(self, u, uh):
        d = (self.irfft(self.symbol * uh)
             + (4.0 / self.eps) * u * (u**2 - 1.0))
        return float(np.abs(d - d.mean()).max())

    def step(self, u, uh, S, dt, e0):
        """(u, its spectrum, energy, rejections) after one accepted step."""
        wh = np.fft.rfftn((np.square(u) - 1.0) * u)
        for rejections in range(40):
            den = 1.0 + dt * (self.lam + S)
            a = (1.0 + dt * S - dt * self.nonlocal_sym) / den
            b = (4.0 / self.eps) * dt / den
            a[(0,) * u.ndim], b[(0,) * u.ndim] = 1.0, 0.0
            spec = a * uh
            spec -= b * wh
            unew = self.irfft(spec)
            e1 = self.energy(unew, spec)
            if e1 <= e0 * (1.0 + 1e-12) + 1e-12:
                return unew, spec, e1, rejections
            dt *= 0.5
        raise AssertionError("oracle step rejected 40 times")


@pytest.mark.parametrize("sizes, forced", [
    ((64,), False), ((24, 30), False), ((9, 10, 8), False),
    ((256,), True), ((24, 30), True), ((9, 10, 8), True)])
def test_step_is_bit_identical_to_four_fft_oracle(sizes, forced):
    rng = np.random.default_rng(4)
    g = make_grid(len(sizes), sizes)
    u = 0.9 * np.tanh(2 * rng.standard_normal(sizes)) + 0.1
    st = FlowState(ScalarField(g, u.copy()), epsilon=0.1, gamma0=30.0, dt=1e-4)
    oracle = _MultiplierOracle(sizes, 0.1, 30.0)
    uh = np.fft.rfftn(u)
    energies, rejections = [oracle.energy(u, uh)], 0
    for i in range(6):
        if forced and i == 3:
            st.dt, st.stabilization = 10.0, 1e-12   # undersized shift: explicit blow-up
        dt, before = st.dt, st.rejections
        calls = count_transforms(lambda: flow_step(st))
        assert sum(calls.values()) == 2 + (st.rejections - before)
        u, uh, e1, r = oracle.step(u, uh, st.stabilization, dt, energies[-1])
        energies.append(e1)
        rejections += r
        assert np.array_equal(st.u.values, u)
    assert forced == (rejections > 0)
    assert st.rejections == rejections
    assert np.array_equal([e for (_, _, e) in st.energy_history], energies)
    assert flow_residual(st) == oracle.residual(u, uh)


def test_accepted_step_footprint():
    # one accepted 256^2 step peaked at 2.11 MB (an irfftn and its inputs,
    # numpy 2.4); a step that kept one more half spectrum (0.53 MB) alive, on
    # top of the candidate spectrum it carries, would cross the bar
    g = make_grid(2, (256, 256))
    rng = np.random.default_rng(3)
    u = ScalarField(g, 0.9 * np.tanh(2 * rng.standard_normal(g.sizes)) + 0.1)
    st = FlowState(u, epsilon=0.0625, gamma0=100.0, dt=1e-5)
    peak = traced_peak(lambda: flow_step(st))
    assert st.step == 2 and st.rejections == 0
    assert peak < 2.4e6, peak / 1e6
    # the caches the warm-up call hides: one (grid, eps, gamma0) key keeps
    # no more than three real half-spectrum arrays
    assert _flow_symbols(g, 0.0625, 100.0).nbytes <= 3 * 256 * 129 * 8


def test_state_holds_the_multipliers_of_its_current_dt_and_shift_only():
    # 250 steps at 256^2 across two shift refreshes (steps 100 and 200) and
    # one forced rejection episode: what the run leaves allocated is the
    # state's field (values and spectrum) and one (A, B) pair, for the
    # (dt, S) it last stepped with; one more pair kept anywhere (0.53 MB)
    # would cross the bar
    g = make_grid(2, (256, 256))
    rng = np.random.default_rng(6)
    u = ScalarField(g, 0.9 * np.tanh(2 * rng.standard_normal(g.sizes)) + 0.1)
    _flow_symbols(g, 0.0625, 100.0), u.spectrum          # warm the caches
    tracemalloc.start()
    try:
        st = FlowState(u, epsilon=0.0625, gamma0=100.0, dt=1e-5)
        for i in range(250):
            if i == 150:
                st.dt, st.stabilization = 10.0, 1e-12   # undersized shift: explicit blow-up
            flow_step(st)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert st.step == 250 and st.rejections > 0
    field_bytes = st.u.values.nbytes + st.u.spectrum.nbytes
    (key, a, b) = st.multipliers
    assert held <= field_bytes + a.nbytes + b.nbytes + 0.25e6, held / 1e6
    assert key == (st.dt, st.stabilization)
    oracle = _MultiplierOracle(g.sizes, 0.0625, 100.0)
    den = 1.0 + st.dt * (oracle.lam + st.stabilization)
    want_b = (4.0 / 0.0625) * st.dt / den
    want_b[0, 0] = 0.0
    assert np.array_equal(b, want_b) and a[0, 0] == 1.0


@pytest.mark.parametrize("n, eps, gamma0, dt, steps, noise_seed", [
    (64, 1 / 16, 53.3, 1e-3, 1000, None),                      # the README flow
    (256, 0.0125, sharp_gamma_to_gamma0(20.0), 1e-5, 400, 5)],  # A8's stable return
    ids=["readme-64", "a8-return-256"])
def test_flow_matches_the_first_written_step(n, eps, gamma0, dt, steps, noise_seed):
    # the multiplier step against the step as first written (oracles): the
    # zero mode, the well's 4/eps and the pricing weights are rounded
    # differently, nothing more
    g = make_grid(2, (n, n))
    u0 = tanh_profile(lamella(1, 0.0), g, eps)
    if noise_seed is not None:
        noisy = u0.values + 0.02 * np.random.default_rng(noise_seed).standard_normal(g.sizes)
        u0 = ScalarField(g, noisy - noisy.mean() + u0.mean())
    st = run_flow(u0, eps, gamma0, dt, steps)
    want, energies, rejections = reference_flow(u0.values, eps, gamma0, dt, steps)
    got = np.array([e for (_, _, e) in st.energy_history])
    assert st.step == steps and st.rejections == rejections
    assert np.abs(st.u.values - want).max() <= 1e-13
    assert np.abs(got / energies - 1.0).max() <= 1e-14


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
    st.dt = 10.0
    flow_step(st)
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
    st.dt = 0.0
    with pytest.raises(ValidationError):
        flow_step(st)


def test_start_at_infinite_energy_is_rejected_not_stepped():
    # one cell at 1e80 puts the well term past float range; every candidate
    # then passed inf <= inf, and the flow stepped with no rejection
    values = np.zeros((16, 16))
    values[3, 5] = 1e80
    u = ScalarField(make_grid(2, (16, 16)), values)
    msg = r"^start energy inf is not finite at epsilon=0\.1, gamma0=1\.0$"
    with pytest.raises(ValidationError, match=msg):
        FlowState(u, 0.1, 1.0)
    with pytest.raises(ValidationError, match=msg):
        run_flow(u, 0.1, 1.0, 1e-4, 3)


def test_tanh_profile_is_signed_by_the_strips_and_checks_the_grid():
    g = make_grid(2, (48, 40))
    shape = lamella(3, 0.2)
    u = tanh_profile(shape, g, 0.05)
    assert np.array_equal(np.sign(u.values), rasterize(shape, g).values)
    assert np.array_equal(u.values, np.broadcast_to(u.values[:1], g.sizes))
    with pytest.raises(ValidationError, match="dimension mismatch"):
        tanh_profile(shape, make_grid(1, (40,)), 0.05)


@pytest.mark.parametrize("name, value", [
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", 0.0),
    ("gamma0", float("nan")), ("gamma0", float("inf")), ("gamma0", -1.0),
    ("dt", float("nan")), ("dt", float("inf")), ("dt", 0.0), ("dt", -1e-4)])
def test_nonfinite_or_out_of_range_parameter_is_named(name, value):
    u = ScalarField(make_grid(1, (16,)), np.zeros(16))
    params = {"epsilon": 0.1, "gamma0": 0.0, "dt": 1e-4, name: value}
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        FlowState(u, **params)
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        run_flow(u, params["epsilon"], params["gamma0"], params["dt"], 3)
    if name == "dt":
        st = FlowState(u, 0.1, 0.0)
        st.dt = value
        with pytest.raises(ValidationError, match="^dt must be"):
            flow_step(st)


@pytest.mark.parametrize("name, value", [
    ("epsilon", float("nan")), ("epsilon", float("inf")), ("epsilon", 0.0),
    ("gamma0", float("nan")), ("gamma0", float("inf")), ("gamma0", -1.0)])
def test_diffuse_energy_names_bad_parameter(name, value):
    u = ScalarField(make_grid(1, (16,)), np.zeros(16))
    params = {"epsilon": 0.1, "gamma0": 0.0, name: value}
    with pytest.raises(ValidationError, match=f"^{name} must be"):
        diffuse_energy(u, **params)


@pytest.mark.parametrize("stop_tol", [-1.0, float("nan")])
def test_negative_or_nan_stop_tol_is_rejected(stop_tol):
    u = ScalarField(make_grid(1, (16,)), np.zeros(16))
    with pytest.raises(ValidationError, match="^stop_tol must be"):
        run_flow(u, 0.1, 0.0, 1e-4, 3, stop_tol=stop_tol)


def test_negative_max_steps_is_rejected():
    u = ScalarField(make_grid(1, (16,)), np.zeros(16))
    with pytest.raises(ValidationError, match="max_steps"):
        run_flow(u, 0.1, 0.0, 1e-4, -5)
    assert run_flow(u, 0.1, 0.0, 1e-4, 0).stop_reason == "max_steps"
