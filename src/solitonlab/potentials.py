"""Catalog of analytic external potentials, grid sampling and admissibility.

A potential qualifies for the transmission experiments when the operator
H = -1/2 d^2/dx^2 + V has (i) no zero-energy resonance, (ii) at most one
simple negative eigenvalue, and (iii) pointwise decay |V(x)| <~ <x>^{-s}
with s > 2, where <x> = sqrt(1 + x^2). The catalog:

* ``zero``                 V = 0
* ``algebraic``            V = q * (1 + (x-c)^2)^(-s/2)   (decay parameter s, exactly)
* ``gaussian``             V = q * exp(-(x-c)^2 / (2 sigma^2))
* ``sech2_scaled``         V = -beta * sech^2(x-c)
* ``poschl_teller``        V = -(ell (ell+1) / 2) * sech^2(x-c)
                           (reflectionless for integer ell; equals
                           sech2_scaled with beta = ell(ell+1)/2)

Every kind is even about its center c: V(c + y) = V(c - y), as algebraic and
gaussian read x - c only through (x - c)^2 and the sech^2 kinds through the
even sech. ``scattering`` relies on it: it takes only grids symmetric about c,
builds the transfer matrices of the left half of the cells and mirrors them.

A true point (delta) potential is outside the catalog; narrow Gaussians
(sigma <= 0.05) are the sanctioned stand-in and are labeled as such.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .grid import Grid, make_grid, require_resolved

#: |V| must fall below this at the grid edges for scattering asymptotics
EDGE_TOL = 1e-4
#: admissibility is judged on [c - ADMISSIBILITY_HALF_WIDTH, c +
#: ADMISSIBILITY_HALF_WIDTH] x ADMISSIBILITY_N around the center c, doubled in
#: width and points together (same spacing) until |V| at both edges is below
#: EDGE_TOL, up to ADMISSIBILITY_MAX_N points; past it the verdict is
#: inconclusive
ADMISSIBILITY_HALF_WIDTH = 40.0
ADMISSIBILITY_N = 2048
ADMISSIBILITY_MAX_N = 1 << 16
#: log-log slopes steeper than this are reported as the super-algebraic sentinel
SLOPE_CAP = 15.0

#: catalog kinds and the parameters each reads besides ``center``, the only
#: ones outside input may set; and the numeric parameters of a PotentialSpec
KIND_PARAMS = {"zero": (), "algebraic": ("q", "s"), "gaussian": ("q", "sigma"),
               "sech2_scaled": ("beta",), "poschl_teller": ("ell",)}
KINDS = tuple(KIND_PARAMS)
PARAMS = ("q", "s", "sigma", "beta", "ell", "center")


def _sech(z: np.ndarray) -> np.ndarray:
    # overflow-safe sech
    a = np.exp(-np.abs(z))
    return 2.0 * a / (1.0 + a * a)


def json_number(value, name: str) -> float:
    """A config value as a float; it must be a finite JSON number (not a bool)."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{name!r} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class PotentialSpec:
    """Analytic descriptor of an external potential V."""

    kind: str
    q: float = 1.0
    s: float = 3.0
    sigma: float = 1.0
    beta: float = 1.0
    ell: float = 1.0
    center: float = 0.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ConfigError(f"unknown potential kind {self.kind!r}; choose from {KINDS}")
        for name in PARAMS:
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"potential parameter {name} must be finite")
        # sigma**2 underflows to 0 below about 1.5e-162, and V(center) is 0/0
        if self.kind == "gaussian" and not (self.sigma > 0 and self.sigma**2 > 0):
            raise ConfigError(f"gaussian width sigma must be positive with sigma**2 > 0, "
                              f"got {self.sigma:g}")
        if self.kind == "poschl_teller" and self.ell <= 0:
            raise ConfigError("poschl_teller ell must be positive")

    def __call__(self, x) -> np.ndarray:
        """Evaluate V at arbitrary positions (vectorized)."""
        y = np.asarray(x, dtype=np.float64) - self.center
        if self.kind == "zero":
            return np.zeros_like(y)
        if self.kind == "algebraic":
            return self.q * (1.0 + y * y) ** (-self.s / 2.0)
        if self.kind == "gaussian":
            with np.errstate(over="ignore"):  # a tiny sigma gives exp(-inf) = 0, exactly
                return self.q * np.exp(-y * y / (2.0 * self.sigma**2))
        return -self.depth * _sech(y) ** 2

    @property
    def depth(self) -> float:
        """The sech^2 kinds' well depth: poschl_teller is sech2_scaled at beta = ell(ell+1)/2."""
        return self.beta if self.kind == "sech2_scaled" else self.ell * (self.ell + 1.0) / 2.0

    @cached_property
    def sup_norm(self) -> float:
        """max |V| (attained at the center for every catalog kind)."""
        return float(abs(self(np.array([self.center]))[0]))

    @cached_property
    def slope_norm(self) -> float:
        """max |V'|, in closed form per kind: |q| s (s+1)^{-1/2} ((s+1)/(s+2))^{(s+2)/2}
        (algebraic, at (x-c)^2 = 1/(s+1) for s > -1), |q| e^{-1/2}/sigma
        (gaussian, at |x-c| = sigma), depth 4/(3 sqrt 3) (sech^2 kinds, at
        tanh(x-c) = 1/sqrt 3) and 0 (zero)."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "algebraic":
            s = self.s
            if s <= -1.0:  # |V'| grows without bound for s < -1 and tends to |q| at s = -1
                return math.inf if s < -1.0 else abs(self.q)
            return abs(self.q * s) * (s + 1.0) ** -0.5 * ((s + 1.0) / (s + 2.0)) ** ((s + 2.0) / 2.0)
        if self.kind == "gaussian":
            return abs(self.q) * math.exp(-0.5) / self.sigma
        return self.sup_norm * 4.0 / (3.0 * math.sqrt(3.0))

    @cached_property
    def feature_length(self) -> float:
        """The length over which V changes by its own size, max|V| / max|V'|
        (inf when V' = 0)."""
        slope = self.slope_norm
        return self.sup_norm / slope if slope > 0 else math.inf

    @property
    def decay_parameter(self) -> float:
        """Nominal decay exponent: s for the algebraic family, inf otherwise
        (super-algebraic decay), 0 never occurs (zero potential gives inf)."""
        return float(self.s) if self.kind == "algebraic" else math.inf

    @property
    def is_delta_approximation(self) -> bool:
        return self.kind == "gaussian" and self.sigma <= 0.05

    def tail_integral(self, x_edge: float) -> float:
        """Upper estimate of  integral_{|x-c| >= x_edge} |V| dx, used to report
        the truncation error of finite-domain scattering asymptotics."""
        r = abs(x_edge)
        if self.kind == "zero":
            return 0.0
        if self.kind == "algebraic":
            if self.s <= 1:
                return math.inf
            return 2.0 * abs(self.q) * r ** (1.0 - self.s) / (self.s - 1.0)
        if self.kind == "gaussian":
            return float(abs(self.q) * self.sigma * math.sqrt(2 * math.pi)
                         * math.erfc(r / (math.sqrt(2) * self.sigma)))
        # integral of sech^2 tail = 1 - tanh(r), both sides
        return float(2.0 * self.depth * (1.0 - math.tanh(r)))

    def to_dict(self) -> dict:
        return {"kind": self.kind, "center": self.center,
                **{name: getattr(self, name) for name in KIND_PARAMS[self.kind]}}

    @classmethod
    def from_dict(cls, d: dict) -> "PotentialSpec":
        """Read outside input; a key the kind does not read is a ConfigError."""
        if not isinstance(d, dict) or "kind" not in d:
            raise ConfigError("potential config must be an object with a 'kind' key")
        kind = d["kind"]
        if kind not in KINDS:
            raise ConfigError(f"unknown potential kind {kind!r}; choose from {KINDS}")
        allowed = ("kind", *KIND_PARAMS[kind], "center")
        if foreign := set(d) - set(allowed):
            raise ConfigError(f"potential kind {kind!r} takes only {list(allowed)}; "
                              f"foreign keys: {sorted(foreign)}")
        return cls(**{k: (v if k == "kind" else json_number(v, k)) for k, v in d.items()})


@dataclass(frozen=True)
class SampledPotential:
    """Grid samples of a PotentialSpec (real-valued), keeping the analytic spec."""

    spec: PotentialSpec
    grid: Grid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.float64)
        if vals.shape != (self.grid.n,):
            raise ConfigError("sample count does not match grid")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def sample_potential(spec: PotentialSpec, grid: Grid) -> SampledPotential:
    return SampledPotential(spec, grid, spec(grid.x))


def decay_fit(spec: PotentialSpec, grid: Grid) -> float:
    """Least-squares slope of log|V| against log<x> on the window
    L/8 <= |x - c| <= 3L/8.

    Returns the decay-parameter estimate (minus the slope). Estimates steeper
    than ``SLOPE_CAP`` are reported as ``math.inf`` (super-algebraic decay);
    this is what every exponentially decaying catalog kind produces, and
    what a nonzero V with fewer than 8 nonzero window samples returns (it
    underflowed there, as a narrow gaussian does). The zero potential
    raises ConfigError.
    """
    y = grid.x - spec.center
    window = (np.abs(y) >= grid.length / 8.0) & (np.abs(y) <= 3.0 * grid.length / 8.0)
    if not window.any():
        raise ConfigError("decay fit window contains no grid samples")
    v = np.abs(spec(grid.x)[window])
    y = np.abs(y[window])
    keep = v > 0.0  # drop underflowed samples
    if keep.sum() < 8:
        if spec.sup_norm > 0.0:  # V underflows on the window: faster than any power
            return math.inf
        raise ConfigError("decay fit window has no usable (nonzero) samples")
    logv = np.log(v[keep])
    logx = 0.5 * np.log1p(y[keep] ** 2)  # log <x>
    slope = np.polyfit(logx, logv, 1)[0]
    estimate = -float(slope)
    return math.inf if estimate > SLOPE_CAP else estimate


def edge_magnitude(spec: PotentialSpec, grid: Grid) -> float:
    """max |V| over the first and the last grid node."""
    return float(np.max(np.abs(spec(np.array([grid.x_min, grid.x[-1]])))))


@dataclass(frozen=True)
class ResonanceProbe:
    detected: bool
    w0_abs: float
    w0_abs_doubled: float
    stable: bool


@dataclass(frozen=True)
class AdmissibilityReport:
    """Verdict of the three admissibility conditions plus the measured inputs,
    on the domain ``grid`` they were judged on. ``resonance`` is None when
    the edge check stopped the report early."""

    spec: PotentialSpec
    grid: Grid
    decay_parameter_estimate: float
    bound_state_energies: tuple[float, ...]
    resonance: ResonanceProbe | None
    admissible: bool
    conclusive: bool
    notes: tuple[str, ...] = ()

    @property
    def bound_state_count(self) -> int:
        return len(self.bound_state_energies)

    @property
    def resonance_detected(self) -> bool:
        return self.resonance is not None and self.resonance.detected

    @property
    def wronskian_at_zero(self) -> float:
        return self.resonance.w0_abs if self.resonance is not None else math.nan

    def to_dict(self) -> dict:
        est = self.decay_parameter_estimate
        return {
            "potential": self.spec.to_dict(),
            "domain": {"x_min": self.grid.x_min, "x_max": self.grid.x_max, "n": self.grid.n},
            "decay_parameter_estimate": est if math.isfinite(est) else None,
            "decay_super_algebraic": bool(math.isinf(est)),
            "bound_state_count": self.bound_state_count,
            "bound_state_energies": list(self.bound_state_energies),
            "resonance_detected": self.resonance_detected,
            "wronskian_at_zero_abs": self.wronskian_at_zero,
            "admissible": self.admissible,
            "conclusive": self.conclusive,
            "notes": list(self.notes),
        }


def check_admissibility(spec: PotentialSpec) -> AdmissibilityReport:
    """Assemble the admissibility report for H = -1/2 d^2/dx^2 + V, on the
    domain sized from V (see ADMISSIBILITY_MAX_N); every caller gets the
    same verdict for the same V.

    Bound states come from the tridiagonal eigensolver and the resonance
    verdict from the zero-frequency Wronskian with a domain-doubling
    stability check; an unstable verdict yields ``conclusive=False``.
    """
    from . import scattering  # deferred: scattering imports this module

    half, n = ADMISSIBILITY_HALF_WIDTH, ADMISSIBILITY_N
    require_resolved(spec.center - half, spec.center + half, 2.0 * half / n)  # even a width of 0
    grid = make_grid(spec.center - half, spec.center + half, n)
    while (edge_v := edge_magnitude(spec, grid)) >= EDGE_TOL and n < ADMISSIBILITY_MAX_N:
        half, n = 2.0 * half, 2 * n
        grid = make_grid(spec.center - half, spec.center + half, n)
    notes: list[str] = []
    try:
        decay_est = decay_fit(spec, grid)
    except ConfigError:
        decay_est = math.nan
        notes.append("potential vanishes on the decay-fit window")

    if edge_v >= EDGE_TOL:
        return AdmissibilityReport(
            spec, grid, decay_est, (), None, False, False,
            tuple(notes + [f"inconclusive: |V|={edge_v:.3g} at domain edge exceeds {EDGE_TOL:g}"]),
        )

    energies = tuple(scattering.bound_states(sample_potential(spec, grid), energies_only=True))

    probe = scattering.detect_resonance(spec, grid)
    if not probe.stable:
        notes.append("inconclusive: resonance verdict flipped under domain doubling")

    if spec.is_delta_approximation:
        notes.append("narrow gaussian: delta-potential approximation")

    decays_fast = math.isfinite(decay_est) and decay_est > 2.0 or math.isinf(decay_est)
    admissible = (
        len(energies) <= 1 and not probe.detected and decays_fast and probe.stable
    )
    return AdmissibilityReport(
        spec,
        grid,
        decay_est,
        energies,
        probe,
        bool(admissible),
        bool(probe.stable),
        tuple(notes),
    )
