"""Three-phase transmission experiment and the velocity-scaling study.

A boosted soliton of width 1 starts at x0 = c - x0_factor * v^(1-delta), left
of the potential's center c by at least the required launch distance
v^(1-delta), crosses the potential around t* = |x0 - c|/v, and is tracked
against the exact free soliton over the horizon t_end = (1-delta) log v. The
phases are

    phase 1 (pre-interaction)  [0, T1],  T1 = |x0 - c|/v - v^-delta
    phase 2 (interaction)      [T1, T2], T2 = |x0 - c|/v + v^-delta
    phase 3 (post-interaction) [T2, t_end]   (empty when t_end <= T2,
                                              which happens at small v)

The scaling study fits log sup_t ||u - u1||_L2 against log v and passes when
the error is strictly decreasing and the fitted slope is at most
-(2 delta - 1) + 0.1; faster decay than the theoretical envelope passes.
Each velocity also gets a V = 0 companion run, the same plan with a zero
potential, whose sup error is the discretization floor; scaling points must
sit at least 10x above their floor to count as physics rather than numerics.
A run's only input is its plan, and the study's figures are read from its
runs. Every run is carried in the frame co-moving with its soliton (see
:mod:`propagation`); its series and final field are lab-frame quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

from .errors import ConfigError
from .grid import EDGE_WINDOW, MAX_N, Grid, make_grid, require_resolved
from .potentials import (
    ADMISSIBILITY_HALF_WIDTH, AdmissibilityReport, PotentialSpec, _sech, check_admissibility,
    json_number, sample_potential,
)
from .propagation import (
    EDGE_MASS_TOL,
    EvolveResult,
    SolitonParams,
    StepperConfig,
    evolve,
    required_kmax,
    resolution_length,
    schedule,
    soliton,
    suggested_dt,
    validate_step_rules,
)
from .scattering import bound_states

#: scaling points must exceed this multiple of the matched-resolution floor
FLOOR_FACTOR = 10.0
#: slack added to the theoretical slope bound -(2 delta - 1)
SLOPE_SLACK = 0.1
#: least clearance between the soliton path and a domain end; sech(30) keeps
#: the soliton tail at the edge below propagation.SOLITON_TAIL_TOL
MARGIN = 30.0
#: observations over the horizon (fewer when v^-delta/10 is the finer cadence)
OBS_POINTS = 800
#: distance from the soliton center to an edge window at which the exact
#: soliton's share of the mass in the window, e^{-2d}, is EDGE_MASS_TOL/2000
_WINDOW_DISTANCE = 0.5 * math.log(2000.0 / EDGE_MASS_TOL)
#: a plan keeps the reflected band when first-Born predicts at least this
#: fraction of the mass reflected (see :func:`predicted_reflection`). Measured:
#: a gaussian q=-4, sigma=0.1 at v = 16 (predicted 1.9e-7) puts 8.5e-8 of the
#: mass in the edge windows without the band; criterion 12's gaussian q=1,
#: sigma=0.05 at v = 32 (predicted 5.9e-10) carries 1.2e-9 of mass in its
#: reflected packet; every smooth potential of the ladders at v >= 16 predicts
#: below 1e-20
REFLECTION_TOL = EDGE_MASS_TOL / 100.0
#: the momentum density of the soliton, (pi/4) sech^2(pi (lam - v)/2), holds
#: e^{-pi 12} = 4e-17 of the mass beyond v +- _MOMENTUM_SPAN on either side
_MOMENTUM_SPAN = 12.0

_NUMBER_KEYS = ("delta", "x0_factor")


@dataclass(frozen=True)
class PhaseTimes:
    """Interaction timing for one (v, x0, delta) triple, x0 measured from
    the potential's center."""

    t1: float
    t2: float
    t3: float
    t_end: float

    @property
    def interaction_width(self) -> float:
        return self.t2 - self.t1


def phase_times(v: float, x0: float, delta: float) -> PhaseTimes:
    """T1 = |x0|/v - v^-delta, T2 = |x0|/v + v^-delta, T3 = T2 + (1-delta) log v,
    horizon t_end = (1-delta) log v, for a launch at x0 relative to the
    potential's center. Rejects T1 < 0 (start inside the interaction window)
    and t_end <= |x0|/v (horizon over before the crossing). A T1 below 0 by
    at most 1e-12 |x0|/v is roundoff at the launch boundary |x0| = v^(1-delta)
    and counts as 0."""
    if not v > 1:
        raise ConfigError(f"velocity must exceed 1, got {v}")
    if not x0 < 0:
        raise ConfigError(f"x0 must be negative, got {x0}")
    if not 0 < delta < 1:
        raise ConfigError(f"delta must lie in (0, 1), got {delta}")
    t_cross = abs(x0) / v
    half = v**-delta
    t1 = t_cross - half
    if t1 < -1e-12 * t_cross:
        raise ConfigError(
            f"T1 = |x0 - c|/v - v^-delta = {t1:.3g} < 0: soliton starts inside the "
            "interaction window; move x0 further out"
        )
    t_end = (1.0 - delta) * math.log(v)
    if t_end <= t_cross:
        raise ConfigError(
            f"horizon t_end = (1-delta) log v = {t_end:.3g} ends before the crossing time "
            f"|x0 - c|/v = {t_cross:.3g}; move x0 closer (smaller x0_factor) or raise v"
        )
    return PhaseTimes(t1=max(t1, 0.0), t2=t_cross + half, t3=t_cross + half + t_end, t_end=t_end)


@dataclass(frozen=True)
class ExperimentConfig:
    """What the transmission experiment varies; :func:`plan_run` derives
    the rest from the run rules."""

    potential: PotentialSpec
    delta: float
    velocities: tuple[float, ...]
    x0_factor: float = 2.0
    override_admissibility: bool = False

    def __post_init__(self):
        s = max(self.potential.decay_parameter, 0.0)  # s <= 0 leaves the window empty
        upper = s / (1.0 + s) if math.isfinite(s) else 1.0
        if not 0.5 < self.delta < upper:
            raise ConfigError(
                f"delta={self.delta} outside (1/2, s/(1+s)) = (0.5, {upper:.4g}) "
                f"for decay parameter s={s:g}"
            )
        if self.x0_factor < 1.0:
            raise ConfigError("x0_factor must be >= 1 so that x0 - center <= -v^(1-delta)")
        if not self.velocities or any(not v > 1 for v in self.velocities):
            raise ConfigError("all velocities must exceed 1")
        object.__setattr__(self, "velocities", tuple(float(v) for v in self.velocities))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """Read a JSON config; every value of the wrong type is a ConfigError.
        ``out_dir`` is accepted here and read by the command line."""
        if not isinstance(d, dict):
            raise ConfigError("experiment config must be a JSON object")
        known = {"potential", "velocities", "v", "override_admissibility", "out_dir",
                 *_NUMBER_KEYS}
        unknown = set(d) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        if "potential" not in d or "delta" not in d:
            raise ConfigError("config needs at least 'potential' and 'delta'")
        if ("v" in d) == ("velocities" in d):
            raise ConfigError("config needs either 'velocities' or a single 'v'")
        velocities = [d["v"]] if "v" in d else d["velocities"]
        if not isinstance(velocities, list):
            raise ConfigError(f"'velocities' must be a list, got {velocities!r}")
        for key, kind in (("override_admissibility", bool), ("out_dir", str)):
            if key in d and type(d[key]) is not kind:
                raise ConfigError(f"{key!r} must be of JSON type {kind.__name__}, got {d[key]!r}")
        kwargs = {k: json_number(d[k], k) for k in _NUMBER_KEYS if k in d}
        if "override_admissibility" in d:
            kwargs["override_admissibility"] = d["override_admissibility"]
        return cls(potential=PotentialSpec.from_dict(d["potential"]),
                   velocities=tuple(json_number(v, "velocities") for v in velocities), **kwargs)


@dataclass(frozen=True)
class RunPlan:
    """Grid, step and timing derived from the run rules for one velocity of
    ``config``: everything a run needs. ``grid`` co-moves with the soliton;
    it is the lab grid at t = 0. It holds the reflected band only when
    ``reflected_mass``, the first-Born reflected fraction of
    :func:`predicted_reflection`, reaches ``REFLECTION_TOL``. The V = 0
    floor of a study is the same plan with a config whose potential is
    ``PotentialSpec("zero")``."""

    config: ExperimentConfig
    v: float
    x0: float
    grid: Grid
    dt: float
    cadence: float
    phases: PhaseTimes
    reflected_mass: float

    @property
    def t_end(self) -> float:
        return self.phases.t_end

    @property
    def reflected_band(self) -> bool:
        """Whether the grid holds the reflected packet's path."""
        return self.reflected_mass >= REFLECTION_TOL


def predicted_reflection(spec: PotentialSpec, v: float) -> float:
    """The first-Born fraction of a soliton at velocity v that ``spec``
    reflects: |R(lam)|^2 = min(1, |int V e^{2i lam x} dx|^2 / lam^2)
    averaged over the soliton's momentum density (pi/4) sech^2(pi (lam -
    v)/2) for lam > 0. Low momenta carry the reflection of a smooth V: for
    sech2_scaled beta 0.5 at v = 6 the average is 7.6e-8, |R(v)|^2 1.7e-15.

    One real FFT of V, sampled on the admissibility domain [c - 40, c + 40]
    at a spacing that resolves k = 2 (v + _MOMENTUM_SPAN) and a quarter of
    V's feature length, gives the integral at every lam, spaced pi/80; the
    density outside v +- _MOMENTUM_SPAN is left out.
    """
    if spec.kind == "zero":
        return 0.0
    half = ADMISSIBILITY_HALF_WIDTH
    lam_max = v + _MOMENTUM_SPAN
    spacing = min(math.pi / (2.0 * lam_max), resolution_length(spec) / 4.0)
    n = 1 << math.ceil(math.log2(2.0 * half / spacing))
    h = 2.0 * half / n
    dlam = math.pi / (2.0 * half)  # rfft bin m is k = 2 pi m / (n h) = 2 lam
    first = max(1, math.ceil((v - _MOMENTUM_SPAN) / dlam))
    transform = np.fft.rfft(spec(spec.center - half + h * np.arange(n)))
    transform = transform[first:math.floor(lam_max / dlam) + 1]
    lam = dlam * np.arange(first, first + transform.size)
    r2 = np.minimum(1.0, h * h * (transform.real**2 + transform.imag**2) / lam**2)
    density = _sech(0.5 * math.pi * (lam - v)) ** 2
    # the trapezoid rule from lam = 0 adds half a node there, where the cap holds
    half_node = 0.5 / math.cosh(0.5 * math.pi * v) ** 2 if first == 1 else 0.0
    return float(0.25 * math.pi * dlam * (np.dot(density, r2) + half_node))


def _domain_grid(lo: float, hi: float, dx_max: float) -> Grid:
    """The grid on the core [lo, hi] with :func:`plan_run`'s clearance at each end."""
    window_clear = (_WINDOW_DISTANCE + EDGE_WINDOW * (hi - lo)) / (1.0 - 2.0 * EDGE_WINDOW)
    clearance = max(MARGIN, window_clear)
    x_min, x_max = lo - clearance, hi + clearance
    points = (x_max - x_min) / dx_max
    if not points <= MAX_N:  # inf at a huge v, too
        raise ConfigError(f"required grid size 2^{math.log2(points):.4g} points is unreasonably "
                          "large (at most 2^22)")
    require_resolved(x_min, x_max, dx_max)  # a far center rounds the width, even to 0
    return make_grid(x_min, x_max, max(16, 1 << math.ceil(math.log2(points))))


def plan_run(config: ExperimentConfig, v: float) -> RunPlan:
    """Size domain, grid and time step for one velocity from the run rules.

    The run co-moves with the soliton (see :mod:`propagation`), so the grid
    is the lab grid at t = 0 and moves at v. The launch offset from the
    center is -x0_factor v^(1-delta). In the co-moving frame the soliton
    stays at x0 and the potential sweeps left from its center c to
    c - v t_end, crossing x0 at t_cross, so the core of the domain is
    [x0, c]. A reflected component would leave x0 at -2v after the
    crossing: the core gains its path, the band
    [x0 - 2v (t_end - t_cross), x0], only when :func:`predicted_reflection`
    reaches ``REFLECTION_TOL``. Each end adds a clearance of at least
    ``MARGIN``, widened so that a soliton at either end of the core stays
    ``_WINDOW_DISTANCE`` clear of the edge window, which covers
    ``EDGE_WINDOW`` of the whole domain; n is the next power of 2. A plan
    past 2^22 grid points or ``propagation.MAX_STEPS`` steps (as
    ``schedule`` counts them) is a ConfigError, raised before the
    prediction is made.
    """
    center = config.potential.center
    launch = -config.x0_factor * v ** (1.0 - config.delta)
    x0 = center + launch
    phases = phase_times(v, launch, config.delta)
    dx_max = math.pi / required_kmax(config.potential)
    grid = _domain_grid(x0, center, dx_max)
    dt = suggested_dt(v, config.potential)
    cadence = min(phases.t_end / OBS_POINTS, v**-config.delta / 10.0)
    schedule(phases.t_end, dt, cadence)  # the run's steps, held to MAX_STEPS
    plan = RunPlan(config=config, v=float(v), x0=float(x0), grid=grid, dt=dt, cadence=cadence,
                   phases=phases, reflected_mass=predicted_reflection(config.potential, v))
    if plan.reflected_band:
        t_cross = abs(launch) / v  # the crossing time of phase_times
        plan = replace(plan, grid=_domain_grid(x0 - 2.0 * v * (phases.t_end - t_cross), center,
                                               dx_max))
    return plan


@dataclass(frozen=True)
class RunReport:
    """One transmission run of ``plan``: ``evolution`` holds its error
    series against the exact soliton, the final lab samples (on the plan's
    grid shifted by v t_end), the validity flags, the steps taken (each of
    t_end/steps, at most ``plan.dt``) and the step loop's telemetry; the sup
    error and per-phase peak errors are read from the series. ``wall_s``
    (the run's wall time, in the manifest) and ``admissibility_s`` (the wall
    time of the gate in :func:`transmission_run`; None when the override
    skips the gate, and in a study's runs, whose reports from ``solitonlab
    study`` hold the study's one shared gate) are telemetry."""

    plan: RunPlan
    evolution: EvolveResult
    wall_s: float
    admissibility_s: float | None = None

    @property
    def sup_error(self) -> float:
        return float(self.evolution.series.err_l2.max())

    def _peak(self, lo: float, hi: float) -> float | None:
        t, err = self.evolution.series.times, self.evolution.series.err_l2
        mask = (t >= lo - 1e-12) & (t <= hi + 1e-12)
        return float(err[mask].max()) if mask.any() else None

    @property
    def peak_phase1(self) -> float | None:
        return self._peak(0.0, self.plan.phases.t1)

    @property
    def peak_phase2(self) -> float | None:
        return self._peak(self.plan.phases.t1, self.plan.phases.t2)

    @property
    def peak_phase3(self) -> float | None:
        return self._peak(self.plan.phases.t2, self.plan.t_end)

    @property
    def admissibility_overridden(self) -> bool:
        return self.plan.config.override_admissibility

    @property
    def dt(self) -> float:
        """The step taken."""
        return self.plan.t_end / self.evolution.steps

    @property
    def timing(self) -> dict:
        """Step-loop telemetry: wall time, of which the observer's, steps
        per second, grid points, step taken and FFT count; and the
        admissibility gate's wall time."""
        ev = self.evolution
        return {"loop_s": ev.loop_s, "observe_s": ev.observe_s,
                "steps_per_s": ev.steps / ev.loop_s if ev.loop_s > 0 else math.inf,
                "n": self.plan.grid.n, "dt": self.dt, "transforms": ev.transforms,
                "admissibility_s": self.admissibility_s}

    def to_dict(self) -> dict:
        ev, grid = self.evolution, self.evolution.final.grid
        return {
            "v": self.plan.v,
            "x0": self.plan.x0,
            "delta": self.plan.config.delta,
            "mu": 1.0,
            "t_end": self.plan.t_end,
            "phases": {
                "t1": self.plan.phases.t1,
                "t2": self.plan.phases.t2,
                "t3": self.plan.phases.t3,
            },
            "grid": {"x_min": grid.x_min, "x_max": grid.x_max, "n": grid.n},
            "predicted_reflected_mass": self.plan.reflected_mass,
            "reflected_band": self.plan.reflected_band,
            "dt": self.dt,
            "steps": ev.steps,
            "potential": self.plan.config.potential.to_dict(),
            "sup_error": self.sup_error,
            "peak_phase1": self.peak_phase1,
            "peak_phase2": self.peak_phase2,
            "peak_phase3": self.peak_phase3,
            "valid": ev.valid,
            "invalid_reason": ev.invalid_reason,
            "admissibility_overridden": self.admissibility_overridden,
            "timing": self.timing,
        }


def _admissibility_gate(config: ExperimentConfig) -> AdmissibilityReport | None:
    """Judge the potential; raise ConfigError unless it is admissible or
    config.override_admissibility is set."""
    if config.override_admissibility:
        return None
    report = check_admissibility(config.potential)
    if not report.admissible:
        verdict = "not admissible" if report.conclusive else "inconclusive"
        raise ConfigError(f"potential {config.potential.to_dict()} is {verdict} "
                          f"({report.to_dict()}); set override_admissibility to force")
    return report


def _run_plan(plan: RunPlan) -> RunReport:
    """Evolve the boosted soliton on ``plan`` under its config's potential,
    in the frame co-moving at the plan's v, and assemble the report. A zero
    potential is handed to ``evolve`` as no potential at all, as for a
    study's V = 0 floor. Under a V with a bound state, a_abs tracks the
    amplitude on its ground state. No admissibility gate: callers judge the
    potential first."""
    start = perf_counter()
    spec = plan.config.potential if plan.config.potential.kind != "zero" else None
    params = SolitonParams(v=plan.v, x0=plan.x0)
    grid = plan.grid
    validate_step_rules(grid, plan.dt, plan.v, spec)
    pot = sample_potential(spec, grid) if spec is not None else None
    states = bound_states(pot) if pot is not None else []
    result = evolve(soliton(params, 0.0, grid), pot, plan.t_end,
                    StepperConfig(dt=plan.dt, obs_cadence=plan.cadence), reference=params,
                    bound_state=states[0] if states else None, frame_velocity=plan.v)
    return RunReport(plan=plan, evolution=result, wall_s=perf_counter() - start)


def transmission_run(config: ExperimentConfig, v: float) -> RunReport:
    """Evolve the boosted soliton under V and record ||u - u1|| over the
    horizon, on the plan of :func:`plan_run`.

    The potential must be admissible unless config.override_admissibility is
    set; the override is recorded in the report. As in a study, the
    potential is judged before the run is planned.
    """
    gate = _admissibility_gate(config)
    return replace(_run_plan(plan_run(config, v)), admissibility_s=gate.wall_s if gate else None)


@dataclass(frozen=True)
class ScalingResult:
    """Velocity sweep against the theoretical decay exponent: each
    velocity's run and its V = 0 floor run, in increasing v; every figure is
    read from them. :meth:`to_dict` also reports each velocity's headroom,
    error / floor (the floor gate asks for at least ``FLOOR_FACTOR``).
    ``admissibility_s``, the wall time of the study's one admissibility
    gate (None when the override skips it), is telemetry for the manifest."""

    runs: tuple[RunReport, ...]
    floor_runs: tuple[RunReport, ...]
    admissibility_s: float | None

    @property
    def velocities(self) -> tuple[float, ...]:
        return tuple(r.plan.v for r in self.runs)

    @property
    def errors(self) -> tuple[float, ...]:
        return tuple(r.sup_error for r in self.runs)

    @property
    def floors(self) -> tuple[float, ...]:
        return tuple(r.sup_error for r in self.floor_runs)

    @property
    def bound_slope(self) -> float:
        return -(2.0 * self.runs[0].plan.config.delta - 1.0)

    @property
    def slope_limit(self) -> float:
        return self.bound_slope + SLOPE_SLACK

    @property
    def slope(self) -> float:
        """The fitted exponent over the velocities that pass the floor gate
        (nan when fewer than two do)."""
        usable = [(v, e) for v, e, f in zip(self.velocities, self.errors, self.floors)
                  if e >= FLOOR_FACTOR * f]
        if len(usable) < 2:
            return math.nan
        return loglog_slope([u[0] for u in usable], [u[1] for u in usable])

    @property
    def strictly_decreasing(self) -> bool:
        errors = self.errors
        return all(later < earlier for earlier, later in zip(errors, errors[1:]))

    @property
    def floor_gate_ok(self) -> bool:
        return all(e >= FLOOR_FACTOR * f for e, f in zip(self.errors, self.floors))

    @property
    def runs_valid(self) -> bool:
        return all(r.evolution.valid for r in self.runs + self.floor_runs)

    @property
    def passed(self) -> bool:
        slope = self.slope
        return (self.runs_valid and self.floor_gate_ok and self.strictly_decreasing
                and math.isfinite(slope) and slope <= self.slope_limit)

    def to_dict(self) -> dict:
        return {
            "velocities": list(self.velocities),
            "per_v_error": list(self.errors),
            "per_v_floor": list(self.floors),
            "per_v_headroom": [e / f if f > 0 else math.inf
                               for e, f in zip(self.errors, self.floors)],
            "slope": self.slope,
            "bound_slope": self.bound_slope,
            "slope_limit": self.slope_limit,
            "strictly_decreasing": self.strictly_decreasing,
            "floor_gate_ok": self.floor_gate_ok,
            "runs_valid": self.runs_valid,
            "pass": self.passed,
            "per_phase_peaks": [
                {"v": r.plan.v, "phase1": r.peak_phase1, "phase2": r.peak_phase2,
                 "phase3": r.peak_phase3}
                for r in self.runs
            ],
        }


def loglog_slope(vs, es) -> float:
    """Least-squares slope of log(es) against log(vs)."""
    vs = np.asarray(vs, dtype=np.float64)
    es = np.asarray(es, dtype=np.float64)
    if vs.size < 2 or np.any(es <= 0) or np.any(vs <= 0):
        raise ConfigError("slope fit needs >= 2 points with positive values")
    return float(np.polyfit(np.log(vs), np.log(es), 1)[0])


def ProcessPoolExecutor(max_workers: int):
    """concurrent.futures.ProcessPoolExecutor, imported on first use: the
    import costs every command's start-up, and only a study with jobs > 1
    starts a pool."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


def scaling_study(config: ExperimentConfig, jobs: int = 1) -> ScalingResult:
    """Run every velocity (plus its matched V=0 floor) and fit the exponent.

    Needs >= 4 distinct velocities spanning at least a factor 8.
    Admissibility is judged once and every run is planned, before any run
    starts. Each main and each floor plan is its own run, and the runs go
    longest first (grid points times steps, a velocity's main run before its
    floor run), so that with ``jobs`` > 1 no worker is left with the two
    longest runs back to back while the others idle (Graham's LPT rule).
    Reports are put back at their plans' positions, so the result does not
    depend on the order the runs finish in.
    """
    vs = sorted(config.velocities)
    repeated = sorted({v for v in vs if vs.count(v) > 1})
    if repeated:
        raise ConfigError("velocities must be distinct; repeated: "
                          + ", ".join(f"{v:g}" for v in repeated))
    if len(vs) < 4:
        raise ConfigError(f"scaling study needs >= 4 velocities, got {len(vs)}")
    if vs[-1] < 8.0 * vs[0] - 1e-9:
        raise ConfigError("velocities must span at least a factor of 8")
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    gate = _admissibility_gate(config)
    floor_config = replace(config, potential=PotentialSpec("zero"), override_admissibility=True)
    plans = []
    for plan in (plan_run(config, v) for v in vs):
        plans += [plan, replace(plan, config=floor_config)]
    # longest first by grid points x steps; the sort is stable, so a
    # velocity's main run stays ahead of its equal-cost floor run
    order = sorted(range(len(plans)),
                   key=lambda i: -plans[i].grid.n * plans[i].t_end / plans[i].dt)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(plans))) as pool:
            done = list(pool.map(_run_plan, [plans[i] for i in order]))
    else:
        done = [_run_plan(plans[i]) for i in order]
    reports = [report for _, report in sorted(zip(order, done), key=lambda pair: pair[0])]
    return ScalingResult(runs=tuple(reports[0::2]), floor_runs=tuple(reports[1::2]),
                         admissibility_s=gate.wall_s if gate else None)


# --- exponential-window tail bound -------------------------------------------


@dataclass(frozen=True)
class LemmaCheck:
    """sup_y || e^{-|x-y|} <x>^{-s} ||_L2 / <y>^{-s}, with a domain-doubling
    stability probe."""

    s: float
    y: np.ndarray
    ratios: np.ndarray
    sup_ratio: float
    sup_ratio_doubled: float

    @property
    def stable(self) -> bool:
        return abs(self.sup_ratio_doubled - self.sup_ratio) <= 0.05 * self.sup_ratio


def lemma_error_check(s: float, y_values, half_width: float = 80.0, n: int = 1 << 15) -> LemmaCheck:
    """Quadrature check that the windowed algebraic weight is dominated by
    <y>^{-s} uniformly in the window center y (requires s > 1/2)."""
    if not s > 0.5:
        raise ConfigError(f"tail bound requires s > 1/2, got s={s}")
    y = np.asarray(y_values, dtype=np.float64)
    if y.size == 0 or not np.all(np.isfinite(y)):
        raise ConfigError("y grid must be finite and nonempty")
    if half_width < 2.0 * np.max(np.abs(y)):
        raise ConfigError("quadrature window too small for the requested y range")

    def sup_ratio(hw: float, npts: int) -> np.ndarray:
        x = np.linspace(-hw, hw, npts, endpoint=False)
        dx = x[1] - x[0]
        integrand = np.exp(-2.0 * np.abs(x[None, :] - y[:, None])) * (1.0 + x**2) ** (-s)
        g = np.sqrt(dx * integrand.sum(axis=1))
        return g * (1.0 + y**2) ** (s / 2.0)

    ratios = sup_ratio(half_width, n)
    ratios_doubled = sup_ratio(2.0 * half_width, 2 * n)
    res = LemmaCheck(
        s=float(s),
        y=y,
        ratios=ratios,
        sup_ratio=float(ratios.max()),
        sup_ratio_doubled=float(ratios_doubled.max()),
    )
    ratios.flags.writeable = False
    return res
