"""Time evolution of  i u_t = -1/2 u_xx + V u - |u|^2 u  by Strang splitting.

One step of size dt is the composition

    half kinetic   : multiply Fourier coefficients by exp(-i (dt/2) k^2 / 2)
    potential+cubic: multiply samples by exp(-i dt (V - |u|^2))
    half kinetic   : as above

Both substeps are exact flows of their own Hamiltonians (|u| is invariant
under the pointwise phase), so discrete mass is conserved to roundoff and
the scheme is second order in dt. The kernel carries the Fourier state:
a segment of k steps between observer samples starts from the spectrum,
fuses adjacent half-kinetic factors and returns the spectrum at its end,
in 2k transforms, so the next segment needs no forward transform.
``evolve`` observes in chunks: it stacks the spectra of up to
``CHUNK_ELEMENTS // n`` observations, takes their samples with one batched
inverse transform (the segment's 2k+1st) and fills every observer column
for the whole chunk in one vectorized pass, with V evaluated once per
chunk; the kinetic energy comes from the spectra by Parseval. ``evolve``
is the one entry point to the kernel.

Co-moving frame. A run starts at t = 0 and may be carried in the frame
y = x - f t of a velocity f. With u = e^{i(f x - f^2 t/2)} w(y, t) the field
w obeys

    i w_t = -1/2 w_yy + V(y + f t) w - |w|^2 w,

the same equation under a moving potential. The lab kinetic multiplier
e^{-i (dt/2) (k + f)^2/2} is the frame's e^{-i (dt/2) k^2/2} times a
translation by f dt/2 and a phase, so a frame step that takes V at its
midpoint time, V(y + f (t_j + dt/2)), is the lab Strang step exactly. At
f = 0 the step takes the potential's samples. The observer reports lab
quantities, and the final field comes back as lab samples on the grid
shifted by f t_end.

Resolution rules for the soliton of width 1 moving at v relative
to the potential, for a run carried in the frame co-moving with the
soliton. Both are Galilean invariant: the carrier phase is integrated
exactly by the kinetic substep, so neither rule pays for v^2. The length
ell is the shorter of the soliton width 1 and the potential's feature
length max|V|/max|V'|:

    k_max >= (2/(pi ell)) ln(2/SOLITON_TAIL_TOL)
             (the Fourier envelope sech(pi k ell/2) of the soliton at rest
             in the frame is below SOLITON_TAIL_TOL at Nyquist; about 18/ell)
    dt    <= PHASE_CAP / (max|V| + 1 + 2|v|/ell)
             (<= 0.1 rad pointwise phase per substep, and the soliton
             moves at most 0.05 ell per step across the potential)

The dt rule keeps 2|v|/ell, because the soliton and the potential still
move at v relative to each other. A grid at rest would need k_max v higher,
as the soliton's envelope is centered at k = v there. What the frame grid
drops: the lab band [-v - 18/ell, v + 18/ell] maps to [-2v - 18/ell, 18/ell]
in the frame, and the frame grid keeps [-18/ell, 18/ell]. The part it drops
holds near-field and reflected content of size about |V^(k)| for
|k| > 18/ell; a grid at rest sized for v already neglects content of that
size on its right side, past v + 18/ell. Where 18/ell > 2v (a narrow
gaussian at moderate v) the reflected band lies on the frame grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from .errors import ConfigError, InvalidRunError, NumericalBreakdownError
from .grid import Field, Grid, edge_mass_fraction
from .potentials import PotentialSpec, SampledPotential, _sech
from .reporting import write_csv
from .scattering import BoundState

#: pointwise phase cap per substep (radians)
PHASE_CAP = 0.1
#: largest soliton envelope allowed at a domain edge when support is checked
SOLITON_TAIL_TOL = 1e-12
#: a run is invalid once more than this share of the mass is in the edge windows
EDGE_MASS_TOL = 1e-8
#: most steps a run may take: 33 times the longest plan of the test suite
#: (v = 512 on algebraic q=0.5, s=3: 31,347 steps). A plan past it comes
#: from a dt = PHASE_CAP/(max|V| + 1 + 2|v|/ell) collapsed by a very deep
#: well (8.3e6 steps at sech2_scaled beta = 1e6, 8.3e300 at 1e300); at
#: about 0.1 ms per observed step on a 512-point grid (2 vCPUs, numpy 2.4)
#: it would run for tens of minutes, or forever
MAX_STEPS = 1 << 20
#: grid points per observer chunk (at most 16 rows): a (rows, n) complex
#: array is at most 128 KiB whatever n, glibc malloc's default mmap
#: threshold, so the chunk pass's temporaries are reused from the heap.
#: Larger ones are mapped and handed back to the kernel on every chunk: at
#: 2^15 points the benchmark study's runs take 29,700 page faults (2,950 at
#: one row per chunk, 4,200 at this budget) and 4 times the system time, a
#: cost that varies with the machine's load. From n = 2^13 on every
#: observation is its own chunk
CHUNK_ELEMENTS = 1 << 13
_CHUNK_ROWS = 16


@dataclass(frozen=True)
class SolitonParams:
    """Traveling-wave solution  e^{i(x v + t/2 - t v^2/2)} sech(x - x0 - v t),
    the soliton of width 1."""

    v: float
    x0: float

    def __post_init__(self):
        if not (math.isfinite(self.v) and math.isfinite(self.x0)):
            raise ConfigError("soliton velocity and center must be finite")

    def center(self, t: float) -> float:
        return self.x0 + self.v * t


def soliton(
    params: SolitonParams,
    t: float,
    grid: Grid,
    check_support: bool = True,
) -> Field:
    """Exact soliton samples at time t. With ``check_support`` the envelope
    must be below ``SOLITON_TAIL_TOL`` at both domain edges."""
    p = params
    if check_support:
        worst = max(
            _sech(np.array([grid.x_min - p.center(t)]))[0],
            _sech(np.array([grid.x[-1] - p.center(t)]))[0],
        )
        if worst > SOLITON_TAIL_TOL:
            raise InvalidRunError(
                f"soliton tail {worst:.3g} exceeds {SOLITON_TAIL_TOL:g} at the domain edge "
                f"(center {p.center(t):.3g} at t={t:g})"
            )
    phase = p.v * grid.x + 0.5 * t - 0.5 * p.v**2 * t
    return Field(grid, np.exp(1j * phase) * _sech(grid.x - p.center(t)))


def resolution_length(potential: PotentialSpec | None = None) -> float:
    """ell of the resolution rules: the shorter of the soliton width 1 and
    the feature length max|V|/max|V'| of ``potential`` (None is V = 0)."""
    return min(1.0, potential.feature_length) if potential is not None else 1.0


def required_kmax(potential: PotentialSpec | None = None) -> float:
    """The k rule: the smallest k_max of a grid co-moving with the soliton
    (see the module docstring)."""
    ell = resolution_length(potential)
    return 2.0 / (math.pi * ell) * math.log(2.0 / SOLITON_TAIL_TOL)


def suggested_dt(v: float, potential: PotentialSpec | None = None) -> float:
    """The dt rule: the largest step for a soliton moving at v relative to
    the potential, in any frame (see the module docstring)."""
    sup_v = potential.sup_norm if potential is not None else 0.0
    budget = sup_v + 1.0 + 2.0 * abs(v) / resolution_length(potential)
    return PHASE_CAP / budget


def validate_step_rules(
    grid: Grid, dt: float, v: float, potential: PotentialSpec | None = None
) -> None:
    """Raise ConfigError when dt or the grid co-moving with a soliton at v
    violate the resolution rules."""
    if dt <= 0 or not math.isfinite(dt):
        raise ConfigError("dt must be positive")
    cap = suggested_dt(v, potential)
    if dt > cap * (1 + 1e-9):
        raise ConfigError(
            f"dt={dt:g} exceeds the resolution cap {PHASE_CAP}/(max|V|+1+2|v|/ell) = {cap:g}"
        )
    kmax = required_kmax(potential)
    if grid.k_max < kmax:
        raise ConfigError(
            f"grid k_max={grid.k_max:.3g} below the resolution rule "
            f"(2/(pi ell)) ln(2/{SOLITON_TAIL_TOL:g})={kmax:.3g}; refine dx"
        )


@dataclass(frozen=True)
class StepperConfig:
    """Time step, observer cadence and snapshot spacing for one evolution."""

    dt: float
    obs_cadence: float
    snapshot_every: int | None = None  # snapshots every k-th observation

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigError("dt must be positive and finite")
        if not (self.obs_cadence > 0 and math.isfinite(self.obs_cadence)):
            raise ConfigError("observer cadence must be positive")
        if self.snapshot_every is not None and self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")


def schedule(t_end: float, dt: float, cadence: float) -> tuple[int, int, float]:
    """The steps of a run from t = 0 to ``t_end``: ``n_seg`` segments of
    ``k_obs`` steps of size ``step`` = t_end/(n_seg k_obs) <= dt, observed
    at both ends of every segment.

    k_obs = max(1, floor(c/dt)) with the cadence c = min(cadence, t_end), so
    observations are spaced by <= cadence when dt <= cadence, and by the
    step otherwise. n_seg = max(1, ceil(t_end/(k_obs dt))), so a run takes
    fewer than t_end/dt + k_obs steps; a cadence past the horizon observes
    t = 0, t_end and, unless dt divides t_end or exceeds it, t_end/2.
    ``t_end`` must be positive and finite, and more than ``MAX_STEPS``
    steps is a ConfigError, found in floating point before anything is
    allocated.
    """
    t_end = float(t_end)
    if not (t_end > 0 and math.isfinite(t_end)):
        raise ConfigError(f"t_end must be positive and finite, got {t_end}")
    k_obs = max(1.0, np.floor(min(cadence, t_end) / dt + 1e-12))
    n_seg = max(1.0, np.ceil(t_end / (k_obs * dt) - 1e-12))
    if not k_obs * n_seg <= MAX_STEPS:
        raise ConfigError(f"a run to t_end={t_end:.3g} takes {k_obs * n_seg:.3g} steps of "
                          f"dt={dt:.3g}, more than {MAX_STEPS} (MAX_STEPS)")
    k_obs, n_seg = int(k_obs), int(n_seg)
    return k_obs, n_seg, t_end / (n_seg * k_obs)


@dataclass(frozen=True)
class ObserverSeries:
    """Per-observation time series written as CSV columns
    t, err_l2, mass, energy, a_abs, edge_mass."""

    times: np.ndarray
    err_l2: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    a_abs: np.ndarray
    edge_mass: np.ndarray

    def __post_init__(self):
        for name in ("times", "err_l2", "mass", "energy", "a_abs", "edge_mass"):
            arr = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        if np.any(np.diff(self.times) <= 0):
            raise ConfigError("observer times must be strictly increasing")
        for name in ("err_l2", "mass", "energy", "a_abs", "edge_mass"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise NumericalBreakdownError(f"observer series {name} contains non-finite entries")

    def to_csv(self, path) -> None:
        columns = (self.times, self.err_l2, self.mass, self.energy, self.a_abs, self.edge_mass)
        write_csv(path, ("t", "err_l2", "mass", "energy", "a_abs", "edge_mass"),
                  np.column_stack(columns).tolist())


@dataclass(frozen=True)
class EvolveResult:
    """The run's outcome; it took ``steps`` steps of t_end/steps each,
    in ``loop_s`` seconds of step loop (observations included, of which
    ``observe_s`` in the chunked observer) and ``transforms`` FFTs, a
    batched transform of r rows counting r."""

    final: Field
    series: ObserverSeries
    steps: int
    valid: bool
    loop_s: float
    observe_s: float
    transforms: int
    invalid_reason: str | None = None
    snapshot_times: tuple[float, ...] = ()
    snapshots: tuple[Field, ...] = field(default=(), repr=False)


class _StrangFlow:
    """k Strang steps of size dt on the Fourier state, fused as
    K_half (P K_full)^{k-1} P K_half: the spectrum times K_half, then
    (ifft, P, fft, times K_full) per step with the last K_full replaced by
    K_half; 2k transforms, and the caller's closing ifft gives the samples.
    In the frame co-moving at ``frame_velocity`` f, P of step j takes V at
    the step's midpoint, V(y + f (j + 1/2) dt); at f = 0 it takes the
    potential's samples. A non-finite sample spreads to every Fourier
    coefficient, so w[0] after each step's forward transform shows whether
    that step broke down."""

    def __init__(self, grid: Grid, potential: SampledPotential | None, dt: float,
                 frame_velocity: float = 0.0):
        if potential is not None and potential.grid != grid:
            raise ConfigError("field and potential live on different grids")
        self.dt = dt
        self.frame_velocity = frame_velocity
        self.x = grid.x
        self.potential = potential
        self.kin_half = np.exp(-0.25j * dt * grid.k**2)
        self.kin_full = self.kin_half * self.kin_half
        self._phase = np.empty(grid.n, dtype=np.complex128)

    def potential_at(self, s: float | np.ndarray) -> np.ndarray | None:
        """V on the grid a time ``s`` after the start (None for no potential):
        the samples at rest, V(y + f s) of the analytic potential otherwise,
        with one row per time when ``s`` is a 1-D array of times."""
        if self.potential is None:
            return None
        if not self.frame_velocity:
            return self.potential.values
        return self.potential.spec(self.x + self.frame_velocity * np.asarray(s)[..., None])

    def __call__(self, uhat: np.ndarray, k: int, first_step: int = 0) -> np.ndarray:
        """The spectrum after k steps from the spectrum ``uhat`` (left
        unchanged, numpy's unnormalized ``fft``); steps are numbered from
        ``first_step``, which also sets the potential's time."""
        dt, phase = self.dt, self._phase
        w = uhat * self.kin_half
        for j in range(k):
            u = np.fft.ifft(w)
            theta = u.real * u.real + u.imag * u.imag
            vpot = self.potential_at((first_step + j + 0.5) * dt)
            if vpot is not None:
                theta -= vpot
            theta *= dt
            # e^{i theta} as cos + i sin into one buffer: cheaper than a complex exp
            np.cos(theta, out=phase.real)
            np.sin(theta, out=phase.imag)
            u *= phase
            w = np.fft.fft(u)
            if not np.isfinite(w[0]):
                raise NumericalBreakdownError("non-finite field", step=first_step + j)
            w *= self.kin_full if j < k - 1 else self.kin_half
        return w


def _energy(
    dx: float, k2: np.ndarray, uhat: np.ndarray, absu2: np.ndarray, vpot: np.ndarray | None
) -> np.ndarray:
    """The energy of samples with spectrum ``uhat`` (numpy's ``fft``) and
    |u|^2 = ``absu2``, on wavenumbers squared ``k2``, one value per row of
    a stack. The kinetic term is taken by Parseval:
    dx sum 1/4|u_x|^2 = dx/(4n) sum k^2 |uhat|^2."""
    kinetic = 0.25 / k2.size * np.sum(k2 * (uhat.real * uhat.real + uhat.imag * uhat.imag),
                                      axis=-1)
    dens = -0.25 * absu2 * absu2
    if vpot is not None:
        dens += 0.5 * vpot * absu2
    return dx * (kinetic + np.sum(dens, axis=-1))


def energy(u: Field, potential: SampledPotential | None = None) -> float:
    """Conserved functional  integral 1/4|u_x|^2 + 1/2 V |u|^2 - 1/4 |u|^4 dx
    with the derivative taken spectrally (one forward transform)."""
    grid = u.grid
    if potential is not None and potential.grid != grid:
        raise ConfigError("field and potential live on different grids")
    vals = u.values
    absu2 = vals.real * vals.real + vals.imag * vals.imag
    vpot = potential.values if potential is not None else None
    return float(_energy(grid.dx, grid.k**2, np.fft.fft(vals), absu2, vpot))


def _lab_field(grid: Grid, w: np.ndarray, f: float, s: float) -> Field:
    """The lab samples e^{i(f x - f^2 s/2)} w of the frame samples ``w`` a
    time ``s`` after the start, on the frame grid shifted by f s."""
    if not f:
        return Field(grid, w)
    lab = grid.shifted(f * s)
    return Field(lab, np.exp(1j * (f * lab.x - 0.5 * f * f * s)) * w)


def evolve(
    u0: Field,
    potential: SampledPotential | None,
    t_end: float,
    config: StepperConfig,
    reference: SolitonParams | None = None,
    bound_state: BoundState | None = None,
    frame_velocity: float = 0.0,
) -> EvolveResult:
    """Iterate Strang steps from t = 0 to ``t_end`` (positive and finite)
    with observer sampling.

    The steps and observation times come from ``schedule(t_end, config.dt,
    config.obs_cadence)``: observations fall on a uniform time grid, the
    step never exceeds config.dt, and a run of more than ``MAX_STEPS``
    steps is a ConfigError.

    With ``frame_velocity`` f the run is carried in the frame co-moving at
    f (see the module docstring): ``u0``, ``potential`` and ``bound_state``
    are given on the lab grid at t = 0, which the frame grid matches then,
    and the final field and the snapshots are lab samples on that grid
    shifted by f t. The observer reports lab quantities at every f.

    The spectrum is carried from segment to segment: one forward transform
    of ``u0``, then 2k transforms per segment of k steps. The observer works
    in chunks of up to ``CHUNK_ELEMENTS // n`` observations (at most 16,
    at least 1): the segments' spectra are stacked, and when the stack is
    full, or the run ends, one batched inverse transform gives their
    samples (the segment's 2k+1st transform; observation 0 keeps the
    samples of ``u0``) and one vectorized pass fills the chunk's columns.
    Mass and the potential and quartic energy terms come from one |u|^2
    array, with V evaluated once per chunk, and the kinetic energy from the
    spectra by Parseval, on the lab wavenumbers k + f; the edge mass comes
    from the same array. err_l2 tracks the exact soliton when ``reference``
    is given (else 0): its carrier is built once, and its profile too when
    it co-moves with the frame. a_abs tracks |<u, phi>| when
    ``bound_state`` is given, on the Fourier side:
    (dx/n) sum_j uhat_j conj(phihat(k_j + f)) e^{-i (k_j + f) f t}
    over the j with |k_j + f| <= k_max, where phihat(k_j + f) is the
    transform of phi e^{-i f y}; a physical-space sum would alias once f
    nears k_max.
    """
    k_obs, n_seg, dt = schedule(t_end, config.dt, config.obs_cadence)
    grid = u0.grid
    f = float(frame_velocity)
    flow = _StrangFlow(grid, potential, dt, f)
    dx, x = grid.dx, grid.x
    lab_k = grid.k + f
    k2 = lab_k * lab_k
    if reference is not None:
        p = reference
        carrier = np.exp(1j * (p.v - f) * x)
        # a reference that co-moves with the frame keeps one profile
        profile = carrier * _sech(x - p.x0) if p.v == f else None
    if bound_state is not None:
        if bound_state.field.grid != grid:
            raise ConfigError("field and bound state live on different grids")
        phihat = np.fft.fft(bound_state.field.values * np.exp(-1j * f * x))
        conj_phihat = np.where(np.abs(lab_k) <= grid.k_max, np.conj(phihat), 0.0)

    times = np.arange(n_seg + 1) * k_obs * dt
    err = np.zeros(n_seg + 1)
    mass = np.empty(n_seg + 1)
    en = np.empty(n_seg + 1)
    a_abs = np.zeros(n_seg + 1)
    edge = np.empty(n_seg + 1)
    rows = min(_CHUNK_ROWS, max(1, CHUNK_ELEMENTS // grid.n))
    uhats = np.empty((rows, grid.n), dtype=np.complex128)
    samples = np.empty_like(uhats)
    snap_times: list[float] = []
    snaps: list[Field] = []
    valid = True
    reason = None
    observe_s = 0.0

    def observe(first: int, m: int) -> None:
        """Observations first..first+m-1 from rows 0..m-1 of ``uhats``;
        observation 0's samples are in ``samples`` already."""
        nonlocal valid, reason, observe_s
        start = perf_counter()
        lo = 1 if first == 0 else 0
        if m > lo:
            samples[lo:m] = np.fft.ifft(uhats[lo:m], axis=-1)
        uhat, u = uhats[:m], samples[:m]
        obs = slice(first, first + m)
        t = times[obs]
        absu2 = u.real * u.real + u.imag * u.imag
        mass[obs] = dx * np.sum(absu2, axis=-1)
        en[obs] = _energy(dx, k2, uhat, absu2, flow.potential_at(t))
        if reference is not None:
            phase = np.exp(1j * (0.5 * (1.0 - p.v**2) * t + f * (p.v - 0.5 * f) * t))[:, None]
            if profile is not None:
                d = u - phase * profile
            else:
                d = u - carrier * (phase * _sech(x - (p.center(t) - f * t)[:, None]))
            err[obs] = np.sqrt(dx * np.sum(d.real * d.real + d.imag * d.imag, axis=-1))
        if bound_state is not None:
            shift = np.exp(-1j * (lab_k * (f * t)[:, None]))
            a_abs[obs] = np.abs(dx / grid.n * np.sum(uhat * conj_phihat * shift, axis=-1))
        edge[obs] = edge_mass_fraction(absu2)
        over = np.flatnonzero(edge[obs] > EDGE_MASS_TOL)
        if valid and over.size:
            i = first + over[0]
            valid = False
            reason = (f"edge mass fraction {edge[i]:.3g} exceeded {EDGE_MASS_TOL:g} "
                      f"at t={times[i]:g}")
        if config.snapshot_every is not None:
            for i in range(-first % config.snapshot_every, m, config.snapshot_every):
                snap_times.append(float(t[i]))
                snaps.append(_lab_field(grid, samples[i].copy(), f, float(t[i])))
        observe_s += perf_counter() - start

    u = u0.values * np.exp(-1j * f * x) if f else u0.values
    uhat = np.fft.fft(u)
    uhats[0] = uhat
    samples[0] = u
    first, filled = 0, 1
    start = perf_counter()
    for seg in range(n_seg):
        if filled == rows:
            observe(first, filled)
            first, filled = first + filled, 0
        uhat = flow(uhat, k_obs, seg * k_obs)
        uhats[filled] = uhat
        filled += 1
    observe(first, filled)
    loop_s = perf_counter() - start

    series = ObserverSeries(times, err, mass, en, a_abs, edge)
    return EvolveResult(
        final=_lab_field(grid, samples[filled - 1].copy(), f, times[-1]),
        series=series,
        steps=n_seg * k_obs,
        valid=valid,
        loop_s=loop_s,
        observe_s=observe_s,
        transforms=1 + n_seg * (2 * k_obs + 1),
        invalid_reason=reason,
        snapshot_times=tuple(snap_times),
        snapshots=tuple(snaps),
    )
