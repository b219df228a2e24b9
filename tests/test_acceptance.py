"""Acceptance suite: one test per shipping criterion, tolerances pinned,
then the co-moving frame's agreement with the lab frame.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion. The heavyweight velocity study is computed once (module
scope) and shared by the criteria that consume it.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from solitonlab.grid import make_grid
from solitonlab.potentials import PotentialSpec, sample_potential
from solitonlab.propagation import (
    SolitonParams,
    StepperConfig,
    bound_mode_residual,
    evolve,
    required_kmax,
    resolution_length,
    schedule,
    soliton,
)
from solitonlab.scattering import bound_states, detect_resonance, scattering_table
from solitonlab.experiments import (
    ExperimentConfig,
    _domain_grid,
    _run_plan,
    lemma_error_check,
    plan_run,
    scaling_study,
    transmission_run,
)

KAPPA = (math.sqrt(5.0) - 1.0) / 2.0
DELTA = 0.6
DECAY_S = 3.0


def _report(num, name, ok, detail):
    print(f"[acceptance] criterion {num:>2} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


#: self-convergence: rerunning at dt/2 may move the sup error by at most
#: this many matched floors (measured 0.64-1.04 at v = 8..64: the Strang
#: error is O(dt^2), so halving dt removes about 3/4 of the floor) ...
DT_HALF_FLOORS = 1.5
#: ... and rerunning at 2n by at most this many (measured <= 2.7e-6: the k
#: rule leaves the spectrum 1e-12 below its peak at Nyquist)
TWO_N_FLOORS = 1e-3
#: every sup error must sit this far above its floor (measured 6.5e4-2.2e5)
MIN_HEADROOM = 1000.0


def _refined(plan):
    """Sup errors of ``plan`` rerun at dt/2 and at 2n on the same domain."""
    g = plan.grid
    half = _run_plan(replace(plan, dt=plan.dt / 2.0))
    fine = _run_plan(replace(plan, grid=make_grid(g.x_min, g.x_max, 2 * g.n)))
    return half.sup_error, fine.sup_error


def _lab_grid(plan):
    """The grid a run of ``plan`` needs in the lab frame: the soliton's path
    and the reflected part's excursion at -v from the potential's center,
    with the plan's clearance, and n from v plus the k rule, as the
    soliton's spectrum is centered at k = v on a grid at rest."""
    c, v = plan.config.potential.center, plan.v
    clearance = plan.grid.x_max - c
    t_cross = (c - plan.x0) / v
    lo = min(plan.x0, c - v * (plan.t_end - t_cross)) - clearance
    hi = plan.x0 + v * plan.t_end + clearance
    n = 1 << math.ceil(math.log2((hi - lo) * (v + required_kmax(plan.config.potential)) / math.pi))
    return make_grid(lo, hi, n)


def _lab_run(plan, frame_velocity=0.0, snapshot_every=None):
    """``plan``'s run on :func:`_lab_grid` with the plan's dt and cadence,
    at ``frame_velocity`` (by default in the lab frame, the grid at rest)."""
    grid = _lab_grid(plan)
    spec = plan.config.potential
    pot = sample_potential(spec, grid) if spec.kind != "zero" else None
    states = bound_states(pot) if pot is not None else []
    params = SolitonParams(v=plan.v, x0=plan.x0)
    return evolve(soliton(params, 0.0, grid), pot, plan.t_end,
                  StepperConfig(dt=plan.dt, obs_cadence=plan.cadence,
                                snapshot_every=snapshot_every),
                  reference=params, bound_state=states[0] if states else None,
                  frame_velocity=frame_velocity)


def _free_soliton_error(dt):
    grid = make_grid(-50.0, 50.0, 1024)
    params = SolitonParams(v=4.0, x0=-20.0)
    config = StepperConfig(dt=dt, obs_cadence=0.05)
    result = evolve(soliton(params, 0.0, grid), None, 10.0, config, reference=params)
    assert result.valid
    return float(result.series.err_l2.max())


@pytest.fixture(scope="module")
def narrow_gaussian():
    """Criterion 12's delta stand-in at v = 32: its plan and its run."""
    config = ExperimentConfig(
        potential=PotentialSpec("gaussian", q=1.0, sigma=0.05),
        delta=0.9,
        velocities=(32.0,),
    )
    plan = plan_run(config, 32.0)
    return plan, _run_plan(plan)


@pytest.fixture(scope="module")
def velocity_study():
    config = ExperimentConfig(
        potential=PotentialSpec("algebraic", q=0.5, s=DECAY_S),
        delta=DELTA,
        velocities=(8.0, 16.0, 32.0, 64.0),
    )
    start = time.perf_counter()
    result = scaling_study(config)
    wall = time.perf_counter() - start
    return result, wall


def test_c01_free_soliton_exactness():
    start = time.perf_counter()
    sup = _free_soliton_error(0.1 / 9 / 8.0)  # reference resolution
    wall = time.perf_counter() - start
    _report(
        1, "free soliton exactness",
        sup <= 1e-5 and wall <= 60.0,
        f"sup ||u-u1|| = {sup:.3e} (<= 1e-5), wall {wall:.1f}s (<= 60s)",
    )


def test_c02_splitting_order():
    errors = [_free_soliton_error(0.1 / 9 / 2**k) for k in range(4)]
    ratios = [errors[i] / errors[i + 1] for i in range(3)]
    _report(
        2, "splitting order",
        all(3.5 <= r <= 4.5 for r in ratios),
        "dt-halving ratios " + ", ".join(f"{r:.3f}" for r in ratios) + " (in [3.5, 4.5])",
    )


def test_c03_mass_and_energy_conservation():
    catalog = (
        PotentialSpec("zero"),
        PotentialSpec("algebraic", q=0.5, s=3.0),
        PotentialSpec("gaussian", q=1.0, sigma=1.0),
        PotentialSpec("sech2_scaled", beta=0.5),
        PotentialSpec("poschl_teller", ell=1.0),
    )
    worst_mass = 0.0
    for spec in catalog:
        grid = make_grid(-20.0, 20.0, 512)
        pot = sample_potential(spec, grid)
        u0 = soliton(SolitonParams(v=0.5, x0=-5.0), 0.0, grid, check_support=False)
        res = evolve(u0, pot, 10.0, StepperConfig(dt=1e-3, obs_cadence=0.5))
        worst_mass = max(worst_mass, float(np.max(np.abs(res.series.mass / res.series.mass[0] - 1.0))))

    grid = make_grid(-40.0, 40.0, 1024)
    pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), grid)
    params = SolitonParams(v=2.0, x0=-10.0)
    dts = (2e-3, 1e-3, 5e-4)
    drifts = []
    for dt in dts:
        res = evolve(soliton(params, 0.0, grid), pot, 5.0, StepperConfig(dt=dt, obs_cadence=0.25))
        e = res.series.energy
        drifts.append(float(np.max(np.abs(e - e[0])) / abs(e[0])))
    slope = float(np.polyfit(np.log(dts), np.log(drifts), 1)[0])
    _report(
        3, "mass and energy conservation",
        worst_mass <= 1e-10 and 1.7 <= slope <= 2.3,
        f"mass drift {worst_mass:.2e} over 1e4 steps (<= 1e-10); "
        f"energy drift ~ dt^{slope:.2f} (quadratic)",
    )


def test_c04_scattering_unitarity():
    grid = make_grid(-60.0, 60.0, 2048)
    lams = np.geomspace(0.5, 20.0, 50)
    worst_defect = worst_agree = 0.0
    for spec in (
        PotentialSpec("gaussian", q=2.0, sigma=1.0),
        PotentialSpec("algebraic", q=1.0, s=3.0),
    ):
        for c in scattering_table(sample_potential(spec, grid), lams):
            worst_defect = max(worst_defect, c.unitarity_defect)
            worst_agree = max(worst_agree, c.t_agreement)
    _report(
        4, "scattering unitarity",
        worst_defect <= 1e-6 and worst_agree <= 1e-6,
        f"max ||T|^2+|R|^2-1| = {worst_defect:.2e}, max |T_w - T_match| = {worst_agree:.2e} "
        "(both <= 1e-6 over 50 log-spaced frequencies)",
    )


def test_c05_reflectionless_oracle():
    eig_grid = make_grid(-28.0, 28.0, 16384)
    pot1 = sample_potential(PotentialSpec("sech2_scaled", beta=1.0), eig_grid)
    scatter_grid = make_grid(-30.0, 30.0, 2048)
    table = scattering_table(
        sample_potential(PotentialSpec("sech2_scaled", beta=1.0), scatter_grid),
        np.linspace(0.5, 10.0, 12),
    )
    max_r = max(abs(c.R) for c in table)
    states1 = bound_states(pot1)
    energy_err = abs(states1[0].energy + 0.5)
    target = 1.0 / np.cosh(eig_grid.x) / math.sqrt(2.0)
    phi_err = math.sqrt(eig_grid.dx * float(np.sum(np.abs(states1[0].field.values - target) ** 2)))
    res1 = detect_resonance(PotentialSpec("sech2_scaled", beta=1.0), scatter_grid)

    pot5 = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), eig_grid)
    states5 = bound_states(pot5)
    energy5_err = abs(states5[0].energy + KAPPA**2 / 2.0)
    res5 = detect_resonance(PotentialSpec("sech2_scaled", beta=0.5), scatter_grid)

    ok = (
        max_r <= 1e-6
        and len(states1) == 1
        and energy_err <= 1e-6
        and phi_err <= 1e-5
        and res1.detected
        and len(states5) == 1
        and energy5_err <= 1e-6
        and not res5.detected
    )
    _report(
        5, "reflectionless potential oracle",
        ok,
        f"depth 1: max|R| = {max_r:.2e}, |E+1/2| = {energy_err:.2e}, "
        f"phi error = {phi_err:.2e}, resonance = {res1.detected}; "
        f"depth 1/2: |E+kappa^2/2| = {energy5_err:.2e}, resonance = {res5.detected}",
    )


def test_c06_high_velocity_asymptotics():
    grid = make_grid(-60.0, 60.0, 2048)
    pot = sample_potential(PotentialSpec("algebraic", q=1.0, s=3.0), grid)
    table = {c.lam: c for c in scattering_table(pot, [8.0, 64.0])}
    g_t = {v: abs(table[v].T - 1.0) * v for v in (8.0, 64.0)}
    g_r = {v: abs(table[v].R) * v for v in (8.0, 64.0)}
    t_ok = g_t[64.0] <= 4.0 * g_t[8.0] and g_t[8.0] <= 4.0 * g_t[64.0]
    # |R(v)| of the analytic profile decays faster than 1/v, so boundedness
    # of |R| v is a one-sided cap (growth by more than 4x would fail it)
    r_ok = g_r[64.0] <= 4.0 * g_r[8.0]
    _report(
        6, "high-velocity transmission asymptotics",
        t_ok and r_ok,
        f"|T-1|v: {g_t[8.0]:.4f} -> {g_t[64.0]:.4f} (factor "
        f"{g_t[64.0]/g_t[8.0]:.2f}, within 4); |R|v: {g_r[8.0]:.2e} -> {g_r[64.0]:.2e} "
        "(bounded, no growth beyond 4x)",
    )


def test_c07_exponential_window_tail_bound():
    details = []
    ok = True
    for s in (1.0, 2.0, 3.0):
        lc = lemma_error_check(s, np.linspace(-40.0, 40.0, 81))
        ok = ok and math.isfinite(lc.sup_ratio) and lc.stable
        details.append(f"s={s:g}: sup={lc.sup_ratio:.4f} (doubled {lc.sup_ratio_doubled:.4f})")
    _report(
        7, "exponential-window tail bound",
        ok,
        "; ".join(details) + " - finite and stable within 5% under domain doubling",
    )


@pytest.mark.slow
def test_c08_main_scaling(velocity_study):
    result, wall = velocity_study
    ok = (
        result.passed
        and result.strictly_decreasing
        and result.slope <= result.slope_limit
        and result.runs_valid
        and result.floor_gate_ok
        and wall <= 1800.0
    )
    errs = ", ".join(f"E({v:g})={e:.3e}" for v, e in zip(result.velocities, result.errors))
    _report(
        8, "main velocity-scaling bound",
        ok,
        f"{errs}; slope {result.slope:.3f} <= {result.slope_limit:.3f}, "
        f"strictly decreasing, floors and edge gates pass, wall {wall:.0f}s (<= 1800s)",
    )


@pytest.mark.slow
def test_c09_phase_structure(velocity_study):
    result, _ = velocity_study
    ordering_ok = all(
        r.peak_phase1 <= r.peak_phase2 for r in result.runs
    )
    rate = DECAY_S * (1.0 - DELTA)
    run8 = result.runs[0]
    run64 = result.runs[-1]
    envelope_c = run8.peak_phase1 / 8.0**-rate
    bound64 = envelope_c * 64.0**-rate
    envelope_ok = run64.peak_phase1 <= bound64
    _report(
        9, "phase structure",
        ordering_ok and envelope_ok,
        f"peak[0,T1] <= peak[T1,T2] at every v; envelope C = {envelope_c:.3f} from v=8 "
        f"gives bound {bound64:.3e} at v=64, measured {run64.peak_phase1:.3e}",
    )


@pytest.mark.slow
def test_c11_self_convergence(velocity_study):
    result, _ = velocity_study
    details = []
    ok = True
    for run, floor in zip(result.runs, result.floors):
        half, fine = _refined(run.plan)
        d_half = abs(half - run.sup_error) / floor
        d_fine = abs(fine - run.sup_error) / floor
        headroom = run.sup_error / floor
        ok = ok and d_half <= DT_HALF_FLOORS and d_fine <= TWO_N_FLOORS and headroom >= MIN_HEADROOM
        details.append(f"v={run.plan.v:g}: dt/2 {d_half:.2f}, 2n {d_fine:.1e} floors, "
                       f"error/floor {headroom:.1e}")
    _report(
        11, "self-convergence",
        ok,
        "; ".join(details) + f" (<= {DT_HALF_FLOORS:g}, <= {TWO_N_FLOORS:g}, >= {MIN_HEADROOM:g})",
    )


@pytest.mark.slow
def test_c12_delta_stand_in_resolution(narrow_gaussian):
    # the narrow gaussian stands in for the delta potential; its feature
    # length sigma e^{1/2} = 0.082, not the soliton width, sets both rules
    plan, run = narrow_gaussian
    v = plan.v
    ell = resolution_length(plan.config.potential)
    base = run.sup_error
    half, fine = _refined(plan)
    # the V = 0 floor misses the splitting error of the narrow potential
    # itself, so agreement is relative (measured 1.5e-7 at dt/2, 3e-11 at 2n);
    # the grid co-moves with the soliton, so the k rule asks 18/ell of it
    ok = (
        ell == pytest.approx(0.05 * math.exp(0.5))
        and plan.grid.k_max >= 18.0 / ell
        and v * plan.dt <= 0.05 * ell
        and abs(half - base) <= 1e-5 * base
        and abs(fine - base) <= 1e-9 * base
    )
    _report(
        12, "delta stand-in resolution",
        ok,
        f"ell = {ell:.4f}, k_max {plan.grid.k_max:.1f} >= {18.0 / ell:.1f}, "
        f"v dt / ell = {v * plan.dt / ell:.4f} <= 0.05; sup error {base:.10g}, "
        f"relative shift {abs(half - base) / base:.1e} at dt/2 (<= 1e-5), "
        f"{abs(fine - base) / base:.1e} at 2n (<= 1e-9)",
    )


@pytest.mark.slow
def test_c10_bound_mode_consistency():
    config = ExperimentConfig(
        potential=PotentialSpec("sech2_scaled", beta=0.5),
        delta=DELTA,
        velocities=(16.0,),
    )
    plan = plan_run(config, 16.0)
    # bound_mode_residual reads lab snapshots on one grid, so this run stays
    # in the lab frame, on a grid sized by the lab k rule
    run = _lab_run(plan, snapshot_every=4)
    state = bound_states(sample_potential(config.potential, run.final.grid))[0]
    assert run.valid
    res = bound_mode_residual(run.snapshot_times, run.snapshots, state)
    _report(
        10, "bound-mode amplitude equation",
        res.ratio <= 10.0,
        f"max residual {res.max_residual:.3e} vs cadence^2 floor {res.floor:.3e} "
        f"(ratio {res.ratio:.2f} <= 10) on the attractive admissible run",
    )


# --- the co-moving frame against the lab frame --------------------------------

#: a co-moving run may move the sup error by at most this many matched floors
#: from a lab-frame run with the same dt and cadence (measured below 1e-5:
#: the frame change is exact, and only the grids differ)
FRAME_FLOORS = 1e-3


def _frame_shifts(result):
    """Per velocity, |sup error - lab-frame sup error| in floors."""
    return [abs(_lab_run(run.plan).series.err_l2.max() - run.sup_error) / floor
            for run, floor in zip(result.runs, result.floors)]


@pytest.mark.slow
def test_runs_take_the_steps_their_plans_schedule(velocity_study):
    result, _ = velocity_study
    for run in result.runs + result.floor_runs:
        k_obs, n_seg, _ = schedule(run.plan.t_end, run.plan.dt, run.plan.cadence)
        assert run.steps == k_obs * n_seg
    assert [run.steps for run in result.runs] == [146, 372, 909, 2156]


@pytest.mark.slow
def test_frame_matches_lab_on_the_acceptance_ladder(velocity_study):
    result, _ = velocity_study
    shifts = _frame_shifts(result)
    assert max(shifts) <= FRAME_FLOORS, shifts


@pytest.mark.slow
def test_frame_matches_lab_on_the_benchmark_ladder():
    config = ExperimentConfig(
        potential=PotentialSpec("algebraic", q=0.5, s=DECAY_S),
        delta=DELTA,
        velocities=(4.0, 8.0, 16.0, 32.0),
        x0_factor=1.0,
    )
    shifts = _frame_shifts(scaling_study(config))
    assert max(shifts) <= FRAME_FLOORS, shifts


def _mass_left_of(field, x):
    g = field.grid
    vals = field.values[g.x < x]
    return g.dx * float(np.sum(vals.real**2 + vals.imag**2))


@pytest.mark.slow
def test_frame_keeps_the_narrow_gaussians_reflected_band(narrow_gaussian):
    plan, run = narrow_gaussian
    assert 18.0 / resolution_length(plan.config.potential) > 2.0 * plan.v
    lab = _lab_run(plan)
    assert run.valid and lab.valid
    # measured 7.8e-12 relative
    assert abs(run.sup_error - lab.series.err_l2.max()) <= 1e-9 * run.sup_error
    # the reflected packet leaves the potential's center 0 at -v after the
    # crossing and sits near -9.7 at t_end; a cut at -5 keeps out the near
    # field at the potential, where the rectangle sum would depend on where
    # each grid puts its points (measured 1.2e-9 of mass, shifted 2e-5)
    frame_left, lab_left = _mass_left_of(run.final, -5.0), _mass_left_of(lab.final, -5.0)
    assert lab_left > 1e-10
    assert abs(frame_left - lab_left) <= 1e-3 * lab_left


@pytest.mark.slow
def test_edge_gate_catches_a_grid_without_the_predicted_band():
    # first-Born predicts 1.9e-7 of this well's mass reflected, so the plan
    # keeps the band; on the core [x0, c] alone the reflected packet wraps
    # into the edge windows (measured 8.5e-8 of the mass) and the run is
    # invalid
    config = ExperimentConfig(potential=PotentialSpec("gaussian", q=-4.0, sigma=0.1),
                              delta=0.55, velocities=(16.0,), x0_factor=1.0,
                              override_admissibility=True)
    plan = plan_run(config, 16.0)
    assert plan.reflected_band
    run = _run_plan(plan)
    assert run.valid
    assert run.series.edge_mass.max() <= 1e-10  # measured 3.1e-11
    dx_max = math.pi / required_kmax(config.potential)
    bare = _run_plan(replace(plan, grid=_domain_grid(plan.x0, 0.0, dx_max)))
    assert bare.plan.grid.n == plan.grid.n
    assert not bare.valid
    assert "edge mass" in bare.invalid_reason


def _bound_state_plan(v):
    config = ExperimentConfig(potential=PotentialSpec("sech2_scaled", beta=0.5), delta=DELTA,
                              velocities=(v,))
    return plan_run(config, v)


def test_frame_bound_mode_amplitude_matches_lab():
    plan = _bound_state_plan(8.0)
    lab = _lab_run(plan).series.a_abs
    peak = lab.max()
    # on one grid the frame's projection is the lab's (measured 1.7e-10 of
    # the peak)
    same_grid = _lab_run(plan, frame_velocity=plan.v).series.a_abs
    assert np.max(np.abs(same_grid - lab)) <= 1e-8 * peak
    # on its own grid (n = 512 against the lab's 1024), each ground state
    # solved at a spacing <= BOUND_STATE_DX (4x the frame grid's points, 2x
    # the lab's); what is left is the finite-difference error of the two
    # ground states (measured 1.5e-4 of the peak)
    frame = _run_plan(plan).series.a_abs
    assert np.max(np.abs(frame - lab)) <= 3e-3 * peak


def test_frame_bound_mode_amplitude_does_not_alias():
    # at v = 32 the frame grid's k_max is below v, so the physical-space sum
    # dx sum e^{ivy} w conj(phi(y + vt)) would alias, and the Fourier-side
    # sum without its |k + v| <= k_max mask reaches 1.1e-11; the overlap
    # itself is at roundoff (measured peaks: 1.4e-15 lab, 8.2e-18 frame)
    plan = _bound_state_plan(32.0)
    assert plan.grid.k_max < plan.v
    lab = _lab_run(plan).series.a_abs
    frame = _run_plan(plan).series.a_abs
    assert lab.max() <= 1e-12
    assert frame.max() <= 1e-12


@pytest.mark.slow
def test_four_octave_study_on_soliton_only_grids():
    # v = 16..256: first-Born predicts no reflection (below 1e-20), so every
    # grid holds only the soliton, and n stays at 512 where the reflected
    # band took it to 8192 at v = 256
    config = ExperimentConfig(potential=PotentialSpec("algebraic", q=0.5, s=DECAY_S),
                              delta=DELTA, velocities=(16.0, 32.0, 64.0, 128.0, 256.0),
                              x0_factor=2.0)
    result = scaling_study(config, jobs=2)
    assert result.runs_valid and result.floor_gate_ok and result.strictly_decreasing
    assert result.slope <= result.slope_limit  # measured -0.9973
    for run in result.runs + result.floor_runs:
        assert not run.plan.reflected_band
        assert run.plan.grid.n == 512


@pytest.mark.slow
def test_v256_run_meets_born():
    # Born's sqrt(2)|int V dx|/v, with int 0.5 (1 + x^2)^(-3/2) dx = 1
    config = ExperimentConfig(potential=PotentialSpec("algebraic", q=0.5, s=DECAY_S),
                              delta=DELTA, velocities=(256.0,), x0_factor=2.0)
    born = math.sqrt(2.0) / 256.0
    report = transmission_run(config, 256.0)
    assert report.valid
    assert abs(report.sup_error - born) <= 0.01 * born
