"""Phase timing, tail bound and the scaling machinery."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from solitonlab import experiments
from solitonlab.errors import ConfigError
from solitonlab.grid import edge_mass_fraction
from solitonlab.potentials import PotentialSpec
from solitonlab.propagation import SolitonParams, required_kmax, soliton
from solitonlab.experiments import (
    ExperimentConfig,
    lemma_error_check,
    loglog_slope,
    phase_times,
    plan_run,
    scaling_study,
    transmission_run,
)


class TestPhaseTimes:
    def test_boundary_case(self):
        # x0 = -v^(1-delta) makes the pre-interaction phase empty
        pt = phase_times(16.0, -2.0, 0.75)
        assert pt.t1 == 0.0
        assert pt.t2 == pytest.approx(0.25, abs=1e-15)
        assert pt.t_end == pytest.approx(0.25 * math.log(16.0), abs=1e-15)

    def test_direct_formula(self):
        pt = phase_times(100.0, -10.0, 0.6)
        assert pt.t1 == pytest.approx(0.1 - 100.0**-0.6, abs=1e-15)
        assert pt.t2 == pytest.approx(0.1 + 100.0**-0.6, abs=1e-15)
        assert pt.t3 == pytest.approx(pt.t2 + 0.4 * math.log(100.0), abs=1e-15)

    def test_start_inside_window_rejected(self):
        with pytest.raises(ConfigError):
            phase_times(4.0, -0.1, 0.6)

    @pytest.mark.parametrize("v", [4.0349, 4.6365, 8.0])
    def test_launch_boundary_roundoff(self, v):
        # at |x0| = v^(1-delta), |x0|/v - v^-delta is -5.6e-17, +5.6e-17 and 0
        # at these v; T1 counts as 0 there, and a launch 1e-9 inside is still
        # rejected
        assert 0.0 <= phase_times(v, -(v**0.4), 0.6).t1 <= 1e-15
        with pytest.raises(ConfigError, match="inside the interaction window"):
            phase_times(v, -(v**0.4) * (1.0 - 1e-9), 0.6)

    def test_horizon_before_crossing_rejected(self):
        # x0_factor = 2 at v = 4: t_end = 0.4 ln 4 = 0.55 < |x0|/v = 0.87
        with pytest.raises(ConfigError, match=r"0\.555.*0\.871"):
            phase_times(4.0, -2.0 * 4.0**0.4, 0.6)

    @pytest.mark.parametrize("v", [8.0, 16.0, 32.0, 64.0])
    def test_interaction_width_identity(self, v):
        pt = phase_times(v, -2.0 * v**0.4, 0.6)
        assert pt.interaction_width == pytest.approx(2.0 * v**-0.6, abs=1e-14)
        assert pt.t_end - pt.t2 == pytest.approx(
            (1.0 - 0.6) * math.log(v) - pt.t2, abs=1e-14
        )

    def test_bad_inputs(self):
        with pytest.raises(ConfigError):
            phase_times(0.5, -2.0, 0.6)
        with pytest.raises(ConfigError):
            phase_times(4.0, 2.0, 0.6)
        with pytest.raises(ConfigError):
            phase_times(4.0, -2.0, 1.5)


class TestExperimentConfig:
    def test_delta_window_algebraic(self):
        pot = PotentialSpec("algebraic", q=0.5, s=3.0)
        ExperimentConfig(potential=pot, delta=0.6, velocities=(8.0,))
        with pytest.raises(ConfigError):
            ExperimentConfig(potential=pot, delta=0.4, velocities=(8.0,))
        with pytest.raises(ConfigError):
            ExperimentConfig(potential=pot, delta=0.76, velocities=(8.0,))

    def test_delta_window_exponential_kind(self):
        pot = PotentialSpec("sech2_scaled", beta=0.5)
        ExperimentConfig(potential=pot, delta=0.9, velocities=(8.0,))

    def test_x0_factor_must_reach_threshold(self):
        pot = PotentialSpec("algebraic", q=0.5, s=3.0)
        with pytest.raises(ConfigError):
            ExperimentConfig(potential=pot, delta=0.6, velocities=(8.0,), x0_factor=0.5)

    def test_from_dict_round_trip(self):
        d = {
            "potential": {"kind": "algebraic", "q": 0.5, "s": 3.0},
            "delta": 0.6,
            "velocities": [8, 16, 32, 64],
        }
        cfg = ExperimentConfig.from_dict(d)
        assert cfg.velocities == (8.0, 16.0, 32.0, 64.0)
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({**d, "typo_key": 1})


class TestRunPlan:
    def test_rules_satisfied(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("algebraic", q=0.5, s=3.0),
            delta=0.6,
            velocities=(8.0, 16.0, 32.0, 64.0),
        )
        for v in cfg.velocities:
            plan = plan_run(cfg, v)
            # the potential's feature length max|V|/max|V'| = 1.16 exceeds the
            # soliton width 1, so ell = 1; the grid co-moves with the soliton,
            # so the k rule does not pay for v
            assert plan.grid.k_max >= required_kmax(cfg.potential)
            assert plan.grid.k_max >= 18.0
            assert plan.dt * (cfg.potential.sup_norm + 1.0 + 2.0 * v) <= 0.1 * (1 + 1e-12)
            assert plan.x0 == pytest.approx(-2.0 * v**0.4)
            # the co-moving domain holds the soliton at x0 and the potential's
            # start at the center 0; it holds the reflected part's excursion
            # at -2v after the crossing only where first-Born predicts
            # reflection, here at v = 8 alone (1.5e-10)
            assert plan.grid.x_max >= 0.0 + 25.0
            assert plan.reflected_band == (v == 8.0)
            t_cross = -plan.x0 / v
            band = 2.0 * v * (plan.t_end - t_cross) if plan.reflected_band else 0.0
            assert plan.grid.x_min <= plan.x0 - band - 25.0

    def test_launch_measured_from_center(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("algebraic", q=0.5, s=3.0, center=10.0),
            delta=0.6,
            velocities=(8.0,),
        )
        plan = plan_run(cfg, 8.0)
        assert plan.x0 == pytest.approx(10.0 - 2.0 * 8.0**0.4)
        # the offset goes to phase_times as is, with no x0 - center round trip
        assert plan.phases == phase_times(8.0, -2.0 * 8.0**0.4, 0.6)

    @pytest.mark.parametrize("center", [-7.5, -3.0, 0.0, 3.0, 10.0])
    def test_launch_boundary_plans(self, center):
        # x0_factor = 1 is the documented boundary; a bare T1 < 0 test after
        # an x0 - center round trip rejected it on roundoff for 50 of these
        # velocities at center 0 and 85-137 of them at the other centers
        spec = PotentialSpec("algebraic", q=0.5, s=3.0, center=center)
        for v in np.geomspace(4.0, 128.0, 400):
            cfg = ExperimentConfig(potential=spec, delta=0.6, velocities=(v,), x0_factor=1.0)
            assert plan_run(cfg, float(v)).phases.t1 >= 0.0

    @pytest.mark.parametrize("v", [128.0, 256.0, 512.0])
    @pytest.mark.parametrize("delta", [0.51, 0.6])
    @pytest.mark.parametrize("x0_factor", [1.0, 2.0])
    def test_exact_soliton_clear_of_edge_windows(self, v, delta, x0_factor):
        # the clearance grows with the domain, whose edge windows grow too;
        # a fixed MARGIN put 8.3e-4 of the mass in them at v=128, delta=0.6
        cfg = ExperimentConfig(potential=PotentialSpec("algebraic", q=0.5, s=3.0), delta=delta,
                               velocities=(v,), x0_factor=x0_factor)
        plan = plan_run(cfg, v)
        params = SolitonParams(v=v, x0=plan.x0)
        for t in (0.0, plan.t_end):  # the grid co-moves: at t it is shifted by v t
            assert edge_mass_fraction(soliton(params, t, plan.grid.shifted(v * t))) <= 1e-11

    def test_clearance_is_margin_at_moderate_v(self):
        # the derived clearance takes over from MARGIN once the core passes
        # 279 wide; with the reflected band this ladder's core would pass it
        # between v = 64 and 128, and without the band (v >= 16 here) it
        # passes it where x0_factor v^0.4 does, at v = 2.3e5
        cfg = ExperimentConfig(potential=PotentialSpec("algebraic", q=0.5, s=3.0), delta=0.6,
                               velocities=(8.0, 16.0, 32.0, 64.0))
        for v in cfg.velocities:
            plan = plan_run(cfg, v)
            # the co-moving core ends at the potential's center 0
            assert plan.grid.x_max == 0.0 + experiments.MARGIN


def _born_average(r2, v):
    """The average of ``r2(lam)`` over the soliton's momentum density for
    lam > 0, by the trapezoid rule on a fine grid."""
    lam = np.linspace(1e-6, v + 30.0, 400_001)
    f = (math.pi / 4.0) / np.cosh(math.pi * (lam - v) / 2.0) ** 2 * np.minimum(1.0, r2(lam))
    return float(np.sum(f[1:] + f[:-1]) * (lam[1] - lam[0]) / 2.0)


class TestReflectedBand:
    @pytest.mark.parametrize("v", [4.0, 6.0, 8.0])
    def test_prediction_matches_the_closed_form(self, v):
        # first-Born |R|^2 of -beta sech^2 is (2 pi beta / sinh(pi lam))^2
        # and of q e^{-x^2/(2 sigma^2)} is (q sigma sqrt(2 pi) e^{-2 lam^2 sigma^2} / lam)^2
        sech2 = experiments.predicted_reflection(PotentialSpec("sech2_scaled", beta=0.5), v)
        assert sech2 == pytest.approx(
            _born_average(lambda lam: (math.pi / np.sinh(math.pi * lam)) ** 2, v), rel=1e-3)
        q, sigma = -4.0, 0.1
        gauss = experiments.predicted_reflection(PotentialSpec("gaussian", q=q, sigma=sigma), v)
        assert gauss == pytest.approx(_born_average(
            lambda lam: (q * sigma * math.sqrt(2.0 * math.pi)
                         * np.exp(-2.0 * (lam * sigma) ** 2) / lam) ** 2, v), rel=1e-3)

    def test_low_momenta_carry_the_reflection(self):
        # at lam = v alone, |R(6)|^2 = (pi / sinh(6 pi))^2 = 1.7e-15
        pred = experiments.predicted_reflection(PotentialSpec("sech2_scaled", beta=0.5), 6.0)
        assert pred == pytest.approx(7.61e-8, rel=1e-2)
        assert pred >= 1e7 * (math.pi / math.sinh(6.0 * math.pi)) ** 2
        assert experiments.predicted_reflection(PotentialSpec("zero"), 6.0) == 0.0

    @pytest.mark.parametrize("spec, delta, v, x0_factor, predicted", [
        # criterion 12's delta stand-in
        (PotentialSpec("gaussian", q=1.0, sigma=0.05), 0.9, 32.0, 2.0, 5.93e-10),
        (PotentialSpec("sech2_scaled", beta=0.5), 0.6, 6.0, 1.0, 7.61e-8),
        (PotentialSpec("gaussian", q=-4.0, sigma=0.1), 0.55, 16.0, 1.0, 1.94e-7),
    ])
    def test_kept_where_reflection_is_predicted(self, spec, delta, v, x0_factor, predicted):
        cfg = ExperimentConfig(potential=spec, delta=delta, velocities=(v,), x0_factor=x0_factor,
                               override_admissibility=True)
        plan = plan_run(cfg, v)
        assert plan.reflected_mass == pytest.approx(predicted, rel=1e-2)
        assert plan.reflected_band
        t_cross = (spec.center - plan.x0) / v
        assert plan.grid.x_min <= plan.x0 - 2.0 * v * (plan.t_end - t_cross) - experiments.MARGIN

    @pytest.mark.parametrize("spec, v, bound", [
        *[(PotentialSpec("algebraic", q=0.5, s=3.0), v, 5e-16) for v in (16.0, 64.0, 256.0)],
        (PotentialSpec("sech2_scaled", beta=0.5), 16.0, 1e-20),
    ])
    def test_dropped_where_none_is_predicted(self, spec, v, bound):
        cfg = ExperimentConfig(potential=spec, delta=0.6, velocities=(v,), x0_factor=2.0)
        plan = plan_run(cfg, v)
        assert plan.reflected_mass <= bound
        assert not plan.reflected_band
        # the core is [x0, c], with MARGIN at each end
        assert (plan.grid.x_min, plan.grid.x_max) == (plan.x0 - experiments.MARGIN,
                                                      spec.center + experiments.MARGIN)
        assert plan.grid.n == 512


class TestLemmaCheck:
    def test_centered_bound(self):
        # ||e^{-|x|} <x>^{-s}||_L2 <= ||e^{-|x|}||_L2 = 1
        for s in (0.6, 1.0, 3.0):
            lc = lemma_error_check(s, [0.0], half_width=60.0, n=1 << 13)
            assert lc.ratios[0] <= 1.0

    def test_finite_and_stable(self):
        lc = lemma_error_check(2.0, np.linspace(-40.0, 40.0, 41))
        assert math.isfinite(lc.sup_ratio)
        assert lc.stable

    def test_plateau_at_large_centers(self):
        lc = lemma_error_check(3.0, [20.0, 40.0])
        r20, r40 = lc.ratios
        assert abs(r40 - r20) <= 0.1 * r20

    def test_small_s_rejected(self):
        with pytest.raises(ConfigError):
            lemma_error_check(0.4, [0.0])

    def test_window_too_small_rejected(self):
        with pytest.raises(ConfigError):
            lemma_error_check(2.0, [0.0, 50.0], half_width=60.0)


class TestSlopeFit:
    def test_two_point_inverse_law(self):
        assert loglog_slope([10.0, 100.0], [0.1, 0.01]) == pytest.approx(-1.0, abs=1e-12)

    def test_recovers_synthetic_exponent(self):
        delta = 0.6
        vs = np.array([8.0, 16.0, 32.0, 64.0])
        es = 0.37 * vs ** -(2 * delta - 1)
        assert loglog_slope(vs, es) == pytest.approx(-(2 * delta - 1), abs=1e-12)

    def test_rejects_degenerate(self):
        with pytest.raises(ConfigError):
            loglog_slope([10.0], [0.1])
        with pytest.raises(ConfigError):
            loglog_slope([10.0, 20.0], [0.0, 0.1])


class TestTransmissionRun:
    def test_free_override_floor(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("zero"),
            delta=0.6,
            velocities=(8.0,),
            override_admissibility=True,
        )
        rep = transmission_run(cfg, 8.0)
        assert rep.evolution.valid
        assert rep.sup_error <= 1e-5  # pure discretization floor
        assert rep.timing["admissibility_s"] is None  # the override runs no gate

    def test_inadmissible_gate(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("sech2_scaled", beta=1.0),  # resonant
            delta=0.6,
            velocities=(8.0,),
        )
        with pytest.raises(ConfigError):
            transmission_run(cfg, 8.0)
        forced = ExperimentConfig(
            potential=PotentialSpec("sech2_scaled", beta=1.0),
            delta=0.6,
            velocities=(8.0,),
            override_admissibility=True,
        )
        rep = transmission_run(forced, 8.0)
        assert rep.admissibility_overridden
        assert rep.evolution.valid

    def test_sign_flip_same_scaling_class(self):
        reps = {}
        for q in (0.5, -0.5):
            cfg = ExperimentConfig(
                potential=PotentialSpec("algebraic", q=q, s=3.0),
                delta=0.6,
                velocities=(8.0, 16.0),
            )
            reps[q] = [transmission_run(cfg, v).sup_error for v in (8.0, 16.0)]
        for i in range(2):
            ratio = reps[0.5][i] / reps[-0.5][i]
            assert 1.0 / 3.0 <= ratio <= 3.0
        assert reps[0.5][1] < reps[0.5][0]
        assert reps[-0.5][1] < reps[-0.5][0]

    def test_error_independent_of_center(self):
        # the run is the same experiment translated: the crossing, the phases
        # and the horizon follow the potential
        errors = []
        for center in (0.0, 10.0, -7.5):
            cfg = ExperimentConfig(
                potential=PotentialSpec("algebraic", q=0.5, s=3.0, center=center),
                delta=0.6,
                velocities=(8.0,),
            )
            errors.append(transmission_run(cfg, 8.0).sup_error)
        assert errors[0] == pytest.approx(0.16108593830836, rel=1e-9)
        assert errors[1:] == pytest.approx([errors[0]] * 2, rel=1e-9)

    def test_phase_peaks_partition(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("algebraic", q=0.5, s=3.0),
            delta=0.6,
            velocities=(16.0,),
        )
        rep = transmission_run(cfg, 16.0)
        assert rep.peak_phase1 is not None and rep.peak_phase2 is not None
        assert rep.peak_phase1 <= rep.peak_phase2
        assert rep.sup_error == pytest.approx(
            max(p for p in (rep.peak_phase1, rep.peak_phase2, rep.peak_phase3 or 0.0))
        )

    # two frame runs pinned to 1e-12 relative: sup error, peak a_abs,
    # energy[0], last mass, steps, n (delta 0.6, x0_factor 1); no other test
    # pins a frame run's a_abs
    @pytest.mark.parametrize("spec, v, pinned", [
        pytest.param(PotentialSpec("algebraic", q=0.5, s=3.0), 8.0,
                     (0.16445129406246226, 0.0, 31.89259352589304, 2.000000000000008, 146, 512),
                     id="algebraic"),
        pytest.param(PotentialSpec("sech2_scaled", beta=0.5), 6.0,
                     (0.2164240111931965, 0.0005264574071336866, 17.75639959524775,
                      2.0000000000000067, 97, 512),
                     id="sech2_half"),
    ])
    def test_frame_run_pinned(self, spec, v, pinned):
        cfg = ExperimentConfig(potential=spec, delta=0.6, velocities=(v,), x0_factor=1.0)
        rep = experiments._run_plan(plan_run(cfg, v))
        s = rep.evolution.series
        got = (rep.sup_error, float(s.a_abs.max()), float(s.energy[0]), float(s.mass[-1]))
        assert got == pytest.approx(pinned[:4], rel=1e-12, abs=0.0)
        assert (rep.evolution.steps, rep.plan.grid.n) == pinned[4:]


class TestAdmissibilityDomain:
    @pytest.mark.parametrize("spec", [
        PotentialSpec("algebraic", q=0.5, s=3.0),
        PotentialSpec("gaussian", q=2.0, sigma=1.0),
        PotentialSpec("sech2_scaled", beta=0.5),
    ])
    def test_fast_decay_keeps_base_domain(self, spec):
        domain = experiments.check_admissibility(spec).to_dict()["domain"]
        assert domain == {"x_min": -40.0, "x_max": 40.0, "n": 2048}

    def test_slow_decay_doubles_at_fixed_spacing(self):
        # |V(40)| = 4.9e-4 exceeds the edge tolerance, |V(80)| = 8.7e-5 does not
        rep = experiments.check_admissibility(PotentialSpec("algebraic", q=5.0, s=2.5, center=3.0))
        assert (rep.grid.x_min, rep.grid.x_max, rep.grid.n) == (-77.0, 83.0, 4096)

    def test_slow_decay_passes_gate(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("algebraic", q=5.0, s=2.5),
            delta=0.6,
            velocities=(8.0,),
            x0_factor=1.0,
        )
        rep = transmission_run(cfg, 8.0)
        verdict = experiments.check_admissibility(cfg.potential)
        assert verdict.admissible and verdict.conclusive
        assert not rep.admissibility_overridden
        assert rep.evolution.valid

    def test_inconclusive_past_the_cap(self):
        # |V| still exceeds the edge tolerance at the widest domain
        cfg = ExperimentConfig(
            potential=PotentialSpec("algebraic", q=2.0, s=1.2),
            delta=0.52,
            velocities=(8.0,),
        )
        with pytest.raises(ConfigError, match="inconclusive") as info:
            transmission_run(cfg, 8.0)
        assert "not admissible" not in str(info.value)

    @pytest.mark.parametrize("sigma", [0.2, 0.05])
    def test_narrow_gaussian_admissible(self, sigma):
        # V underflows on the decay-fit window; that is super-algebraic
        # decay, not a failed fit
        spec = PotentialSpec("gaussian", q=1.0, sigma=sigma)
        rep = experiments.check_admissibility(spec)
        assert rep.admissible and rep.conclusive
        assert math.isinf(rep.decay_parameter_estimate)

    def test_zero_potential_still_not_admissible(self):
        spec = PotentialSpec("zero")
        rep = experiments.check_admissibility(spec)
        assert not rep.admissible and rep.resonance_detected
        assert "potential vanishes on the decay-fit window" in rep.notes

    def test_resonant_message_says_not_admissible(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("sech2_scaled", beta=1.0), delta=0.6, velocities=(8.0,)
        )
        with pytest.raises(ConfigError, match="not admissible"):
            transmission_run(cfg, 8.0)


def _is_floor(plan):
    """A study's V = 0 floor plan: zero potential, admissibility overridden."""
    return plan.config.potential.kind == "zero" and plan.config.override_admissibility


class TestStudyGate:
    def _config(self, **kw):
        return ExperimentConfig(delta=0.6, velocities=(8.0, 16.0, 32.0, 64.0), **kw)

    def test_one_check_per_study(self, monkeypatch):
        calls = []
        real = experiments.check_admissibility
        monkeypatch.setattr(experiments, "check_admissibility",
                            lambda *a, **k: calls.append(a) or real(*a, **k))
        runs = []

        def fake_run(plan):
            runs.append((plan.v, plan.config.potential))
            return SimpleNamespace(plan=plan, evolution=SimpleNamespace(valid=True),
                                   sup_error=1e-9 if _is_floor(plan) else plan.v ** -0.5)

        monkeypatch.setattr(experiments, "_run_plan", fake_run)
        result = scaling_study(self._config(potential=PotentialSpec("algebraic", q=0.5, s=3.0)))
        assert len(calls) == 1
        assert len(runs) == 8
        mains = [r for r in runs if r[1].kind != "zero"]
        assert len(mains) == 4
        assert result.passed

    def test_gate_runs_before_the_pool(self, monkeypatch):
        def no_pool(*a, **k):
            raise AssertionError("pool started for an inadmissible potential")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        with pytest.raises(ConfigError, match="not admissible"):
            scaling_study(self._config(potential=PotentialSpec("sech2_scaled", beta=1.0)), jobs=2)

    def test_every_run_planned_before_the_pool(self, monkeypatch):
        def no_pool(*a, **k):
            raise AssertionError("pool started for a velocity that cannot be planned")

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_pool)
        cfg = ExperimentConfig(potential=PotentialSpec("algebraic", q=0.5, s=3.0), delta=0.6,
                               velocities=(4.0, 8.0, 16.0, 32.0))
        with pytest.raises(ConfigError, match="before the crossing"):
            scaling_study(cfg, jobs=2)

    @staticmethod
    def _fake_pool_and_runs(monkeypatch):
        """Replace the pool and the run helper; returns the pool sizes and
        the task lists that the pool was handed."""
        sizes, task_lists = [], []

        class FakePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                task_lists.append(list(tasks))
                return map(fn, task_lists[-1])

        def fake_run(plan):
            return SimpleNamespace(plan=plan, evolution=SimpleNamespace(valid=True),
                                   sup_error=1e-9 if _is_floor(plan) else plan.v ** -0.5,
                                   peak_phase1=None, peak_phase2=None, peak_phase3=None)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(experiments, "_run_plan", fake_run)
        return sizes, task_lists

    @pytest.mark.parametrize("jobs, workers", [(2, 2), (1000, 8)])
    def test_pool_no_larger_than_the_task_list(self, monkeypatch, jobs, workers):
        sizes, _ = self._fake_pool_and_runs(monkeypatch)
        scaling_study(self._config(potential=PotentialSpec("algebraic", q=0.5, s=3.0)), jobs=jobs)
        assert sizes == [workers]

    def test_one_task_per_run_longest_first(self, monkeypatch):
        _, task_lists = self._fake_pool_and_runs(monkeypatch)
        spec = PotentialSpec("algebraic", q=0.5, s=3.0)
        scaling_study(self._config(potential=spec), jobs=2)
        [tasks] = task_lists
        assert len(tasks) == 8
        for v in (8.0, 16.0, 32.0, 64.0):
            assert sorted(_is_floor(t) for t in tasks if t.v == v) == [False, True]
        costs = [t.grid.n * t.t_end / t.dt for t in tasks]
        assert costs == sorted(costs, reverse=True)
        for a, b in zip(tasks, tasks[1:]):
            if a.v == b.v:  # same plan, equal cost: main first
                assert a.config.potential is spec and _is_floor(b)
        assert tasks[0].v == 64.0 and tasks[0].config.potential is spec

    def test_velocity_order_does_not_change_the_result(self, monkeypatch):
        self._fake_pool_and_runs(monkeypatch)
        spec = PotentialSpec("algebraic", q=0.5, s=3.0)
        ordered = scaling_study(self._config(potential=spec), jobs=2)
        cfg = ExperimentConfig(delta=0.6, velocities=(32.0, 8.0, 64.0, 16.0), potential=spec)
        shuffled = scaling_study(cfg, jobs=2)
        for name in ("velocities", "errors", "floors", "slope", "strictly_decreasing",
                     "floor_gate_ok", "passed"):
            assert getattr(shuffled, name) == getattr(ordered, name)
        assert [r.plan.v for r in shuffled.runs] == [8.0, 16.0, 32.0, 64.0]
        assert [r.plan.v for r in shuffled.floor_runs] == [8.0, 16.0, 32.0, 64.0]

    def test_headroom_is_error_over_floor(self, monkeypatch):
        self._fake_pool_and_runs(monkeypatch)
        result = scaling_study(self._config(potential=PotentialSpec("algebraic", q=0.5, s=3.0)))
        d = result.to_dict()
        assert d["per_v_headroom"] == [e / f for e, f in zip(result.errors, result.floors)]
        assert d["per_v_headroom"] == [v ** -0.5 / 1e-9 for v in (8.0, 16.0, 32.0, 64.0)]

    def test_repeated_velocity_rejected_before_the_gate(self, monkeypatch):
        def no_call(*a, **k):
            raise AssertionError("study went past the velocity check")

        monkeypatch.setattr(experiments, "check_admissibility", no_call)
        monkeypatch.setattr(experiments, "ProcessPoolExecutor", no_call)
        cfg = ExperimentConfig(potential=PotentialSpec("algebraic", q=0.5, s=3.0), delta=0.6,
                               velocities=(4.0, 4.0, 8.0, 32.0), x0_factor=1.0)
        with pytest.raises(ConfigError, match="repeated: 4$"):
            scaling_study(cfg, jobs=2)


class TestScalingStudyValidation:
    def test_needs_four_velocities(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("algebraic", q=0.5, s=3.0),
            delta=0.6,
            velocities=(8.0, 16.0, 32.0),
        )
        with pytest.raises(ConfigError):
            scaling_study(cfg)

    def test_needs_span_factor_eight(self):
        cfg = ExperimentConfig(
            potential=PotentialSpec("algebraic", q=0.5, s=3.0),
            delta=0.6,
            velocities=(8.0, 10.0, 12.0, 14.0),
        )
        with pytest.raises(ConfigError):
            scaling_study(cfg)
