"""Split-step evolution: exactness oracles, conservation, convergence order."""

import math

import numpy as np
import pytest

from solitonlab.errors import ConfigError, InvalidRunError, NumericalBreakdownError
from solitonlab.grid import Field, edge_mass_fraction, l2_norm, make_grid
from solitonlab.potentials import PotentialSpec, sample_potential
from solitonlab.propagation import (
    CHUNK_ELEMENTS,
    EDGE_MASS_TOL,
    MAX_STEPS,
    SolitonParams,
    StepperConfig,
    _StrangFlow,
    energy,
    evolve,
    required_kmax,
    soliton,
    validate_step_rules,
)
from solitonlab.scattering import BoundState, bound_states

from _bound_mode import bound_mode_residual


class TestSoliton:
    def test_peak_value(self):
        g = make_grid(-40.0, 40.0, 1024)
        u = soliton(SolitonParams(v=0.0, x0=0.0), 0.0, g)
        j = np.argmin(np.abs(g.x))
        assert u.values[j] == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("v,x0,t", [(3.0, -5.0, 1.2), (-2.0, 4.0, 0.7)])
    def test_modulus_is_envelope(self, v, x0, t):
        g = make_grid(-60.0, 60.0, 2048)
        u = soliton(SolitonParams(v=v, x0=x0), t, g)
        env = 1.0 / np.cosh(g.x - x0 - v * t)
        assert np.max(np.abs(np.abs(u.values) - env)) <= 1e-13

    @pytest.mark.parametrize("v,x0,t", [(0.0, 0.0, 0.0), (4.0, -10.0, 2.0), (7.0, 3.0, -1.0)])
    def test_l2_norm_boost_invariant(self, v, x0, t):
        g = make_grid(-80.0, 80.0, 4096)
        u = soliton(SolitonParams(v=v, x0=x0), t, g)
        assert abs(l2_norm(u) - math.sqrt(2.0)) <= 1e-8

    def test_support_violation_flagged(self):
        g = make_grid(-10.0, 10.0, 256)
        with pytest.raises(InvalidRunError):
            soliton(SolitonParams(v=0.0, x0=-8.0), 0.0, g)

    def test_bad_params_rejected(self):
        with pytest.raises(ConfigError):
            SolitonParams(v=math.nan, x0=0.0)


def _kernel_step(u: Field, potential, dt: float) -> Field:
    """One step of the raw Strang kernel, of either sign of dt: a forward
    transform, the kernel's two, and an inverse transform."""
    flow = _StrangFlow(u.grid, potential, dt)
    return Field(u.grid, np.fft.ifft(flow(np.fft.fft(u.values), 1)))


def _one_step(u: Field, potential, dt: float) -> Field:
    """The field after one step of size dt, as evolve takes it."""
    return evolve(u, potential, dt, StepperConfig(dt=dt, obs_cadence=dt)).final


class TestStep:
    def test_zero_fixed_point(self):
        g = make_grid(-10.0, 10.0, 128)
        u = _one_step(Field(g, np.zeros(128)), None, 0.01)
        assert np.all(u.values == 0.0)

    def test_plane_wave_exact_phase(self):
        g = make_grid(0.0, 2 * math.pi, 64)
        k0, c, dt = 3.0, 0.7 + 0.2j, 0.1
        u0 = Field(g, c * np.exp(1j * k0 * g.x))
        u1 = _one_step(u0, None, dt)
        exact = u0.values * np.exp(-1j * (k0**2 / 2.0 - abs(c) ** 2) * dt)
        assert np.max(np.abs(u1.values - exact)) <= 1e-12

    def test_mass_preserved_per_step(self):
        g = make_grid(-30.0, 30.0, 1024)
        pot = sample_potential(PotentialSpec("gaussian", q=1.0, sigma=1.0), g)
        u = soliton(SolitonParams(v=3.0, x0=-10.0), 0.0, g, check_support=False)
        u1 = _one_step(u, pot, 0.005)
        assert abs(l2_norm(u1) ** 2 / l2_norm(u) ** 2 - 1.0) <= 1e-12

    def test_local_error_cubic(self):
        g = make_grid(-30.0, 30.0, 1024)
        p = SolitonParams(v=2.0, x0=0.0)
        u0 = soliton(p, 0.0, g, check_support=False)
        errs = []
        for dt in (0.02, 0.01, 0.005):
            u1 = _one_step(u0, None, dt)
            ref = soliton(p, dt, g, check_support=False)
            errs.append(l2_norm(Field(g, u1.values - ref.values)))
        for i in range(2):
            assert 6.0 <= errs[i] / errs[i + 1] <= 10.0

    def test_breakdown_raises(self):
        g = make_grid(-20.0, 20.0, 256)
        with np.errstate(all="ignore"), pytest.raises(NumericalBreakdownError, match="step 0"):
            _one_step(Field(g, 1e160 / np.cosh(g.x)), None, 0.01)

    def test_time_reversal(self):
        g = make_grid(-20.0, 20.0, 512)
        pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), g)
        u0 = soliton(SolitonParams(v=1.0, x0=-5.0), 0.0, g, check_support=False)
        back = _kernel_step(_kernel_step(u0, pot, 0.01), pot, -0.01)
        assert np.max(np.abs(back.values - u0.values)) <= 1e-13


class TestEnergy:
    def test_sech_oracle(self):
        # 1/4 int sech'^2 - 1/4 int sech^4 = 1/6 - 1/3 = -1/6 (quadrature oracle)
        g = make_grid(-16.0, 16.0, 512)
        u = Field(g, 1.0 / np.cosh(g.x))
        assert abs(energy(u) + 1.0 / 6.0) <= 1e-6

    def test_zero_field(self):
        g = make_grid(-16.0, 16.0, 128)
        assert energy(Field(g, np.zeros(128))) == 0.0

    def test_drift_quadratic_in_dt(self):
        g = make_grid(-40.0, 40.0, 1024)
        pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), g)
        p = SolitonParams(v=2.0, x0=-10.0)
        drifts = []
        for dt in (2e-3, 1e-3):
            res = evolve(soliton(p, 0.0, g), pot, 5.0, StepperConfig(dt=dt, obs_cadence=0.25))
            e = res.series.energy
            drifts.append(np.max(np.abs(e - e[0])) / abs(e[0]))
        assert 3.0 <= drifts[0] / drifts[1] <= 5.5


class TestEvolve:
    def test_zero_stays_zero(self):
        g = make_grid(-20.0, 20.0, 256)
        pot = sample_potential(PotentialSpec("gaussian", q=1.0, sigma=1.0), g)
        res = evolve(Field(g, np.zeros(256)), pot, 1.0, StepperConfig(dt=0.01, obs_cadence=0.1))
        assert np.all(res.final.values == 0.0)
        assert np.all(res.series.mass == 0.0)
        assert np.all(res.series.err_l2 == 0.0)

    def test_free_soliton_tracked(self):
        g = make_grid(-50.0, 50.0, 1024)
        p = SolitonParams(v=4.0, x0=-20.0)
        cfg = StepperConfig(dt=0.1 / 9 / 2.0, obs_cadence=0.1)
        res = evolve(soliton(p, 0.0, g), None, 5.0, cfg, reference=p)
        assert res.valid
        assert res.series.err_l2.max() <= 1e-4

    def test_galilean_rest_frame(self):
        # at v=0 the evolution is e^{it/2} sech(x)
        g = make_grid(-16.0, 16.0, 512)
        res = evolve(
            Field(g, 1.0 / np.cosh(g.x)),
            None,
            5.0,
            StepperConfig(dt=1e-3, obs_cadence=0.25),
            reference=SolitonParams(v=0.0, x0=0.0),
        )
        assert res.series.err_l2.max() <= 1e-6

    def test_mass_drift_ten_thousand_steps(self):
        g = make_grid(-20.0, 20.0, 512)
        pot = sample_potential(PotentialSpec("algebraic", q=0.5, s=3.0), g)
        u0 = soliton(SolitonParams(v=0.5, x0=-5.0), 0.0, g, check_support=False)
        res = evolve(u0, pot, 10.0, StepperConfig(dt=1e-3, obs_cadence=0.5))
        drift = np.max(np.abs(res.series.mass / res.series.mass[0] - 1.0))
        assert drift <= 1e-10

    def test_global_second_order(self):
        g = make_grid(-30.0, 30.0, 512)
        p = SolitonParams(v=2.0, x0=-8.0)
        errs = []
        for k in range(3):
            cfg = StepperConfig(dt=0.1 / 3 / 2**k, obs_cadence=0.1)
            res = evolve(soliton(p, 0.0, g, check_support=False), None, 2.0, cfg, reference=p)
            errs.append(res.series.err_l2.max())
        for i in range(2):
            assert 3.5 <= errs[i] / errs[i + 1] <= 4.5

    def test_edge_mass_invalidates(self):
        g = make_grid(-20.0, 20.0, 512)
        p = SolitonParams(v=2.0, x0=-5.0)
        res = evolve(
            soliton(p, 0.0, g, check_support=False),
            None,
            8.0,
            StepperConfig(dt=5e-3, obs_cadence=0.2),
        )
        assert not res.valid
        assert "edge mass" in res.invalid_reason

    def test_segment_fusion_matches_single_steps(self):
        # evolve fuses adjacent half-kinetic factors between observations;
        # the result must match single kernel steps composed to roundoff
        g = make_grid(-40.0, 40.0, 1024)
        pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), g)
        u = soliton(SolitonParams(v=2.0, x0=-10.0), 0.0, g)
        dt, n_steps = 0.01, 20
        manual = u
        for _ in range(n_steps):
            manual = _kernel_step(manual, pot, dt)
        for cadence in (dt, n_steps * dt):
            res = evolve(u, pot, n_steps * dt, StepperConfig(dt=dt, obs_cadence=cadence))
            assert np.max(np.abs(res.final.values - manual.values)) <= 1e-13

    @pytest.mark.parametrize("cadence", [0.01, 0.05])
    def test_breakdown_names_its_step(self, cadence):
        # |u|^2 overflows in the first nonlinear substep, whatever the
        # number of steps fused between observations
        g = make_grid(-20.0, 20.0, 256)
        u0 = Field(g, 1e160 / np.cosh(g.x))
        with np.errstate(all="ignore"), pytest.raises(NumericalBreakdownError) as info:
            evolve(u0, None, 0.1, StepperConfig(dt=0.01, obs_cadence=cadence))
        assert info.value.step == 0

    @pytest.mark.parametrize("t_end", [math.inf, math.nan, 0.0, -1.0])
    def test_bad_end_time_rejected(self, t_end):
        g = make_grid(-20.0, 20.0, 256)
        with pytest.raises(ConfigError, match="t_end"):
            evolve(Field(g, np.exp(-g.x**2)), None, t_end, StepperConfig(dt=0.01, obs_cadence=0.1))

    def test_step_count_past_the_cap_rejected(self):
        # 1e302 steps: rejected before the observer's arrays are allocated
        g = make_grid(-20.0, 20.0, 256)
        with pytest.raises(ConfigError, match=f"more than {MAX_STEPS} \\(MAX_STEPS\\)"):
            evolve(Field(g, np.exp(-g.x**2)), None, 1e300, StepperConfig(dt=0.01, obs_cadence=0.1))

    def test_cadence_past_the_horizon_observes_the_ends(self):
        # the cadence is clamped at t_end: 100 steps of 0.01, not 1000
        g = make_grid(-20.0, 20.0, 256)
        res = evolve(Field(g, np.exp(-g.x**2)), None, 1.0, StepperConfig(dt=0.01, obs_cadence=10.0))
        assert res.steps == 100
        assert res.series.times.tolist() == [0.0, 1.0]

    def test_observer_times_uniform(self):
        g = make_grid(-20.0, 20.0, 256)
        res = evolve(
            Field(g, np.exp(-g.x**2)),
            None,
            1.0,
            StepperConfig(dt=0.0103, obs_cadence=0.1),
        )
        gaps = np.diff(res.series.times)
        assert np.allclose(gaps, gaps[0], rtol=1e-12)
        assert res.series.times[-1] == pytest.approx(1.0, abs=1e-12)

    def test_rules_validation(self):
        g = make_grid(-40.0, 40.0, 1024)
        validate_step_rules(g, 0.1 / 9, 4.0)
        with pytest.raises(ConfigError):
            validate_step_rules(g, 1.0, 4.0)  # dt over cap
        with pytest.raises(ConfigError):
            validate_step_rules(make_grid(-40.0, 40.0, 256), 1e-4, 4.0)  # k_max 10 < 18
        assert required_kmax() == pytest.approx(2.0 / math.pi * math.log(2e12))
        assert required_kmax() == pytest.approx(18.03, abs=0.01)

    def test_rules_in_the_co_moving_frame(self):
        # the grid co-moves with the soliton, so the k rule does not pay for
        # v; the dt rule does, as the potential still moves at v
        g = make_grid(-40.0, 40.0, 512)  # k_max = 20.1
        validate_step_rules(g, 1e-4, 50.0)
        with pytest.raises(ConfigError):
            validate_step_rules(g, 1e-3, 50.0)  # dt over the cap 0.1/101


class TestObserver:
    """evolve's observer reuses the kernel's spectrum and a carrier built once;
    its columns must match the public functions on the same samples."""

    @staticmethod
    def _run(cadence, with_potential):
        g = make_grid(-40.0, 40.0, 1024)
        pot = None
        if with_potential:
            pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), g)
        p = SolitonParams(v=2.0, x0=-10.0)
        # a shifted reference keeps err_l2 O(1) from t = 0, so the relative
        # comparison is not against roundoff
        ref = SolitonParams(v=2.0, x0=-9.7)
        cfg = StepperConfig(dt=0.01, obs_cadence=cadence, snapshot_every=1)
        return g, pot, ref, evolve(soliton(p, 0.0, g), pot, 2.0, cfg, reference=ref)

    @pytest.mark.parametrize("with_potential", [False, True])
    @pytest.mark.parametrize("cadence", [0.01, 0.05])
    def test_energy_column_matches_energy(self, cadence, with_potential):
        _, pot, _, res = self._run(cadence, with_potential)
        expected = np.array([energy(s, pot) for s in res.snapshots])
        assert len(expected) == len(res.series.energy)
        assert np.max(np.abs(res.series.energy - expected) / np.abs(expected)) <= 1e-12

    @pytest.mark.parametrize("with_potential", [False, True])
    @pytest.mark.parametrize("cadence", [0.01, 0.05])
    def test_err_column_matches_l2_norm(self, cadence, with_potential):
        g, _, ref, res = self._run(cadence, with_potential)
        expected = np.array([
            l2_norm(Field(g, s.values - soliton(ref, t, g, check_support=False).values))
            for t, s in zip(res.snapshot_times, res.snapshots)
        ])
        assert len(expected) == len(res.series.err_l2) and expected.min() > 0.1
        assert np.max(np.abs(res.series.err_l2 - expected) / expected) <= 1e-12

    @pytest.mark.parametrize("with_potential", [False, True])
    @pytest.mark.parametrize("cadence", [0.01, 0.05])
    def test_edge_column_matches_edge_mass_fraction(self, cadence, with_potential):
        _, _, _, res = self._run(cadence, with_potential)
        expected = np.array([edge_mass_fraction(s) for s in res.snapshots])
        assert len(expected) == len(res.series.edge_mass) and expected.min() > 0
        assert np.max(np.abs(res.series.edge_mass - expected) / expected) <= 1e-12

    @pytest.mark.parametrize("cadence, k_obs", [(0.01, 1), (0.05, 5)])
    def test_transform_budget(self, monkeypatch, cadence, k_obs):
        # one forward transform of u0, then 2k+1 per segment of k steps, the
        # last of them in the observer's batched inverse transform, which
        # counts one transform per row. One raw kernel step makes 4.
        calls = []

        def counted(fn):
            def wrapper(a, *args, **kwargs):
                a = np.asarray(a)
                calls.extend([fn.__name__] * (a.size // a.shape[-1]))
                return fn(a, *args, **kwargs)
            return wrapper

        for name in ("fft", "ifft"):
            monkeypatch.setattr(np.fft, name, counted(getattr(np.fft, name)))
        g = make_grid(-40.0, 40.0, 512)
        pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), g)
        p = SolitonParams(v=2.0, x0=-10.0)
        u0 = soliton(p, 0.0, g)
        res = evolve(u0, pot, 0.2, StepperConfig(dt=0.01, obs_cadence=cadence), reference=p)
        n_seg = len(res.series.times) - 1
        assert n_seg * k_obs == 20
        assert len(calls) == 1 + n_seg * (2 * k_obs + 1) == res.transforms
        calls.clear()
        _kernel_step(u0, pot, 0.01)
        assert len(calls) == 4


def _chunk_rows(n):
    return min(16, max(1, CHUNK_ELEMENTS // n))


class TestChunks:
    """evolve observes in chunks of CHUNK_ELEMENTS // n rows (1 to 16): one
    batched inverse transform and one vectorized pass per chunk. Whatever
    the chunk edges, each observation must match the public functions
    applied to its own snapshot."""

    SPEC = PotentialSpec("sech2_scaled", beta=0.5)
    # a shifted reference keeps err_l2 O(1), so the comparison is relative
    REF = SolitonParams(v=2.0, x0=-9.7)

    @classmethod
    def _run(cls, n, n_seg, k_obs=1, f=0.0, snapshot_every=1):
        g = make_grid(-40.0, 40.0, n)
        pot = sample_potential(cls.SPEC, g)
        u0 = soliton(SolitonParams(v=2.0, x0=-10.0), 0.0, g)
        cfg = StepperConfig(dt=0.01, obs_cadence=0.01 * k_obs, snapshot_every=snapshot_every)
        res = evolve(u0, pot, 0.01 * k_obs * n_seg, cfg, reference=cls.REF,
                     frame_velocity=f)
        assert len(res.series.times) == n_seg + 1
        return res

    @classmethod
    def _assert_matches_snapshots(cls, res):
        assert len(res.snapshots) == len(res.series.times)
        assert np.array_equal(res.snapshot_times, res.series.times)
        expected = {"mass": [], "energy": [], "err_l2": [], "edge_mass": []}
        for t, snap in zip(res.snapshot_times, res.snapshots):
            g = snap.grid  # shifted by f t in the co-moving frame
            exact = soliton(cls.REF, t, g, check_support=False)
            expected["mass"].append(l2_norm(snap) ** 2)
            expected["energy"].append(energy(snap, sample_potential(cls.SPEC, g)))
            expected["err_l2"].append(l2_norm(Field(g, snap.values - exact.values)))
            expected["edge_mass"].append(edge_mass_fraction(snap))
        for name, column in expected.items():
            column = np.array(column)
            assert np.all(np.abs(column) > 0), name
            got = getattr(res.series, name)
            assert np.max(np.abs(got - column) / np.abs(column)) <= 1e-12, name

    @pytest.mark.parametrize("n_seg, k_obs, f", [
        (20, 1, 0.0),  # 21 observations: a full chunk of 16 and 5 more
        (5, 1, 0.0),  # 6 observations, fewer than one chunk
        (31, 1, 0.0),  # exactly two chunks
        (20, 3, 0.0),  # 3 steps per segment
        (20, 1, 2.0),  # co-moving: V(y + f s) is evaluated once per chunk
    ])
    def test_series_matches_snapshots(self, n_seg, k_obs, f):
        assert _chunk_rows(512) == 16
        self._assert_matches_snapshots(self._run(512, n_seg, k_obs, f))

    def test_snapshot_every_across_chunk_edges(self):
        every = self._run(512, 40)
        third = self._run(512, 40, snapshot_every=3)  # 3 does not divide the 16 rows
        assert np.array_equal(third.series.times, every.series.times)
        for name in ("err_l2", "mass", "energy", "a_abs", "edge_mass"):
            assert np.array_equal(getattr(third.series, name), getattr(every.series, name))
        assert third.snapshot_times == every.snapshot_times[::3]
        assert len(third.snapshots) == 14
        for a, b in zip(third.snapshots, every.snapshots[::3]):
            assert np.array_equal(a.values, b.values)
        assert np.array_equal(third.final.values, every.final.values)
        assert np.array_equal(every.final.values, every.snapshots[-1].values)

    def test_invalid_mid_chunk_names_the_first_offending_time(self):
        # the soliton reaches the right edge window; the first observation
        # over EDGE_MASS_TOL lies inside a chunk, with later ones over too
        g = make_grid(-20.0, 20.0, 512)
        res = evolve(soliton(SolitonParams(v=2.0, x0=-5.0), 0.0, g, check_support=False),
                     None, 8.0,
                     StepperConfig(dt=5e-3, obs_cadence=0.2, snapshot_every=1))
        edge = np.array([edge_mass_fraction(s) for s in res.snapshots])
        assert np.max(np.abs(res.series.edge_mass - edge) / edge) <= 1e-12
        first = int(np.flatnonzero(edge > EDGE_MASS_TOL)[0])
        rows = _chunk_rows(g.n)
        assert first % rows not in (0, rows - 1) and edge[first + 1] > EDGE_MASS_TOL
        assert not res.valid
        t = res.series.times[first]
        assert res.invalid_reason == (f"edge mass fraction {res.series.edge_mass[first]:.3g} "
                                      f"exceeded {EDGE_MASS_TOL:g} at t={t:g}")

    @pytest.mark.parametrize("n", [512, 1024, CHUNK_ELEMENTS, 2 * CHUNK_ELEMENTS])
    def test_rows_per_chunk(self, monkeypatch, n):
        # a grid at or above the element budget observes one row at a time
        batches = []
        ifft = np.fft.ifft

        def recorded(a, *args, **kwargs):
            if np.ndim(a) == 2:
                batches.append(len(a))
            return ifft(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifft", recorded)
        res = self._run(n, 5)
        # observation 0 keeps the samples of u0, so it needs no transform
        assert sum(batches) == 5
        assert max(batches) == min(5, _chunk_rows(n))
        if n >= CHUNK_ELEMENTS:
            assert batches == [1] * 5
        self._assert_matches_snapshots(res)


class TestFrame:
    """A run in the frame co-moving at f is the lab run: on one grid, wide
    enough for both, the observer columns agree, and the final field is the
    lab samples on the grid shifted by f (t1 - t0)."""

    #: 200 grid spacings at f = 2, so the shifted grid falls on grid points
    T = 7.8125

    @classmethod
    def _run(cls, frame_velocity):
        g = make_grid(-40.0, 40.0, 1024)  # k_max = 40 > v + 18: the lab rule holds
        pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), g)
        state = bound_states(pot)[0]
        # the soliton crosses the well at t = 5
        p = SolitonParams(v=2.0, x0=-10.0)
        return p, evolve(soliton(p, 0.0, g), pot, cls.T,
                         StepperConfig(dt=0.01, obs_cadence=0.05), reference=p,
                         bound_state=state, frame_velocity=frame_velocity)

    @pytest.mark.parametrize("f", [1.0, 2.0])  # the reference moves in the frame, or not
    def test_observer_columns_match_the_lab(self, f):
        _, lab = self._run(0.0)
        _, frame = self._run(f)
        a, b = lab.series, frame.series
        assert np.array_equal(a.times, b.times)
        assert np.max(np.abs(a.err_l2 - b.err_l2)) <= 1e-11
        assert np.max(np.abs(a.mass - b.mass)) <= 1e-12
        assert np.max(np.abs(a.energy - b.energy)) <= 1e-11 * np.max(np.abs(a.energy))
        assert a.a_abs.max() > 0.1
        assert np.max(np.abs(a.a_abs - b.a_abs)) <= 1e-11

    @pytest.mark.parametrize("f", [1.0, 2.0])
    def test_final_field_is_lab_samples_on_the_shifted_grid(self, f):
        p, lab = self._run(0.0)
        _, frame = self._run(f)
        g, t_end = lab.final.grid, frame.series.times[-1]
        assert frame.final.grid == g.shifted(f * t_end)
        exact = soliton(p, t_end, frame.final.grid, check_support=False)
        dist = l2_norm(Field(frame.final.grid, frame.final.values - exact.values))
        assert dist == pytest.approx(frame.series.err_l2[-1], rel=1e-12)
        # on the grid points the two domains share, the samples agree up to
        # the splitting error's dispersive tail (1.7e-7 at the edges), which
        # wraps round the two periodic domains differently (measured 7.5e-8)
        m = round(f * t_end / g.dx)  # the shift in grid points
        assert np.max(np.abs(frame.final.values[:-m] - lab.final.values[m:])) <= 1e-6

    def test_bound_state_on_the_run_grid(self):
        # bound_states solves on the run grid refined to BOUND_STATE_DX (4x
        # its points here) and samples the state at the run's nodes; a_abs
        # is then near the converged one, from the ground state on 16384
        # points: measured 2.3e-4 of the peak (3.8e-3 for a solve at the
        # run's own spacing)
        g = make_grid(-40.0, 40.0, 512)
        spec = PotentialSpec("sech2_scaled", beta=0.5)
        pot = sample_potential(spec, g)
        p = SolitonParams(v=2.0, x0=-10.0)

        def a_abs(state, f=0.0):
            return evolve(soliton(p, 0.0, g), pot, self.T,
                          StepperConfig(dt=0.01, obs_cadence=0.05), bound_state=state,
                          frame_velocity=f).series.a_abs

        state = bound_states(pot)[0]
        run = a_abs(state)
        ref = bound_states(sample_potential(spec, make_grid(-40.0, 40.0, 16384)))[0]
        converged = a_abs(BoundState(ref.energy, Field(g, ref.field.values[::32])))
        peak = converged.max()
        assert np.max(np.abs(run - converged)) <= 5e-4 * peak
        assert np.max(np.abs(a_abs(state, 2.0) - run)) <= 1e-11
        for other in (make_grid(-40.0, 40.0, 256), make_grid(-40.0, 41.0, 512),
                      make_grid(-40.0, 40.0, 2048)):
            with pytest.raises(ConfigError):
                a_abs(bound_states(sample_potential(spec, other))[0])


@pytest.fixture(scope="module")
def well():
    g = make_grid(-28.0, 28.0, 2048)
    pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), g)
    return pot, bound_states(pot)[0]


class TestBoundModeResidual:
    def test_zero_field(self, well):
        pot, state = well
        g = pot.grid
        res = evolve(
            Field(g, np.zeros(g.n)),
            pot,
            1.0,
            StepperConfig(dt=0.02, obs_cadence=0.2, snapshot_every=1),
        )
        r = bound_mode_residual(res.series.times, res.snapshots, state)
        assert r.max_residual == 0.0
        assert r.ratio == 0.0

    def test_linear_regime_follows_phase_rotation(self, well):
        pot, state = well
        g = pot.grid
        u0 = Field(g, 1e-4 * state.field.values)
        res = evolve(
            u0,
            pot,
            10.0,
            StepperConfig(dt=0.02, obs_cadence=0.5, snapshot_every=1),
            bound_state=state,
        )
        r = bound_mode_residual(res.series.times, res.snapshots, state)
        assert r.ratio <= 10.0
        # amplitude modulus is preserved by the phase rotation a(0) e^{i lam t}
        assert np.max(np.abs(res.series.a_abs - 1e-4)) <= 1e-8

    def test_too_few_snapshots_rejected(self, well):
        pot, state = well
        g = pot.grid
        f = Field(g, np.zeros(g.n))
        with pytest.raises(ConfigError):
            bound_mode_residual([0.0, 1.0], [f, f], state)

    def test_nonuniform_cadence_rejected(self, well):
        pot, state = well
        g = pot.grid
        f = Field(g, np.zeros(g.n))
        with pytest.raises(ConfigError):
            bound_mode_residual([0.0, 1.0, 3.0], [f, f, f], state)
