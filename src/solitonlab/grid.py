"""Uniform periodic grid, complex fields, discrete norms and Fourier transforms.

Conventions used throughout the package:

* grid points  x_j = x_min + j*dx, j = 0..n-1, dx = (x_max - x_min)/n
  (x_max itself is the periodic image of x_min and is not stored);
* wavenumbers  k_m = 2*pi*m/L for integer m in [-n/2, n/2), kept in FFT
  ("transform") ordering, i.e. ``2*pi*fftfreq(n, dx)``;
* transforms use the unitary convention  fhat = fft(f)/sqrt(n),
  f = ifft(fhat)*sqrt(n), so sum |fhat|^2 = sum |f|^2 and the discrete
  Parseval identity reads  l2_norm(f)^2 = dx * sum_m |fhat_m|^2;
* norms and inner products use the rectangle rule, e.g.
  l2_norm(f) = sqrt(dx * sum |f_j|^2), inner(f, g) = dx * sum f_j * conj(g_j).
  For the exponentially localized fields simulated here the rectangle rule
  is spectrally accurate.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ConfigError, NumericalBreakdownError

_SUPPORTED_LP = (1, 2, 4, 6, np.inf)
#: fraction of the grid at each domain end that counts as the edge window
EDGE_WINDOW = 0.05
#: largest rounding of a node position, ulp(max |x|), as a fraction of dx. A
#: far center shifts results through it: at v = 8 the sup error moved by
#: 1e-8 relative at 8.6e-7 (center 1e9), by 3e-6 at 1.1e-4 (center 1e11),
#: and the Jost walk's Wronskian broke down at 0.45 (center 3e14)
POSITION_TOL = 1e-6


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform periodic spatial grid with matched Fourier wavenumbers."""

    x_min: float
    x_max: float
    n: int

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / self.n

    @property
    def length(self) -> float:
        return self.x_max - self.x_min

    @cached_property
    def x(self) -> np.ndarray:
        xs = self.x_min + self.dx * np.arange(self.n)
        xs.flags.writeable = False
        return xs

    @cached_property
    def k(self) -> np.ndarray:
        """Wavenumbers in transform ordering; max |k| = pi/dx."""
        ks = 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)
        ks.flags.writeable = False
        return ks

    @property
    def k_max(self) -> float:
        return np.pi / self.dx

    def shifted(self, d: float) -> "Grid":
        """The same grid translated by ``d``."""
        return Grid(self.x_min + d, self.x_max + d, self.n)


def require_resolved(x_min: float, x_max: float, dx: float) -> None:
    """Raise ConfigError unless positions on [x_min, x_max] are represented
    to POSITION_TOL * dx; a domain far from 0 rounds its nodes by up to
    ulp(max |x|)."""
    ulp = math.ulp(max(abs(x_min), abs(x_max)))
    if not ulp <= POSITION_TOL * dx:  # nan, too
        raise ConfigError(
            f"spacing {dx:.3g} cannot be resolved on [{x_min:.15g}, {x_max:.15g}]: floats "
            f"there are {ulp:.3g} apart; move the potential's center nearer 0"
        )


def make_grid(x_min: float, x_max: float, n: int) -> Grid:
    """Build a grid, rejecting non-power-of-two n (< 16), empty domains and
    domains too far from 0 to resolve their spacing (see require_resolved)."""
    if not np.isfinite(x_min) or not np.isfinite(x_max) or x_min >= x_max:
        raise ConfigError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    if not isinstance(n, (int, np.integer)) or not _is_power_of_two(int(n)) or n < 16:
        raise ConfigError(f"n must be a power of two >= 16, got {n}")
    require_resolved(x_min, x_max, (x_max - x_min) / n)
    return Grid(float(x_min), float(x_max), int(n))


@dataclass(frozen=True)
class Field:
    """Complex samples on a Grid. Values are immutable after construction."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.ascontiguousarray(self.values, dtype=np.complex128)
        if vals.shape != (self.grid.n,):
            raise ConfigError(
                f"field has {vals.shape} values for a grid of {self.grid.n} points"
            )
        if not np.all(np.isfinite(vals.view(np.float64))):
            raise NumericalBreakdownError("field contains non-finite samples")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


def _same_grid(f: Field, g: Field) -> None:
    if f.grid != g.grid:
        raise ConfigError("fields live on different grids")


def l2_norm(f: Field) -> float:
    return float(np.sqrt(f.grid.dx * np.sum(np.abs(f.values) ** 2)))


def lp_norm(f: Field, p) -> float:
    """Discrete L^p norm, p in {1, 2, 4, 6, inf}."""
    if p not in _SUPPORTED_LP:
        raise ConfigError(f"unsupported exponent p={p}")
    a = np.abs(f.values)
    if p == np.inf:
        return float(a.max())
    return float((f.grid.dx * np.sum(a**p)) ** (1.0 / p))


def inner_product(f: Field, g: Field) -> complex:
    """dx * sum f_j * conj(g_j); the second argument is conjugated."""
    _same_grid(f, g)
    return complex(f.grid.dx * np.sum(f.values * np.conj(g.values)))


def to_fourier(f: Field) -> Field:
    """Forward transform (unitary convention fhat = fft(f)/sqrt(n))."""
    return Field(f.grid, np.fft.fft(f.values) / np.sqrt(f.grid.n))


def from_fourier(fhat: Field) -> Field:
    """Inverse of :func:`to_fourier`."""
    return Field(fhat.grid, np.fft.ifft(fhat.values) * np.sqrt(fhat.grid.n))


def edge_mass_fraction(f: Field | np.ndarray) -> float | np.ndarray:
    """Mass inside the two windows covering ``EDGE_WINDOW`` of each domain end,
    as a fraction of the total mass, of a field or of its density |u|^2 given
    as a real array. Returns 0 for the zero field. A stack of densities (the
    grid along the last axis) gives an array with one fraction per density."""
    dens = np.abs(f.values) ** 2 if isinstance(f, Field) else f
    w = max(1, int(round(EDGE_WINDOW * dens.shape[-1])))
    total = dens.sum(axis=-1)
    edge = dens[..., :w].sum(axis=-1) + dens[..., -w:].sum(axis=-1)
    frac = np.divide(edge, total, out=np.zeros_like(total), where=total != 0.0)
    return float(frac) if dens.ndim == 1 else frac


# --- serialization -----------------------------------------------------------

_MAGIC = b"SLF1"
_HEADER = struct.Struct("<4sQdd")


def save_field(f: Field, path: str | Path) -> None:
    """Binary container: magic, n, x_min, x_max, then interleaved re/im doubles."""
    buf = np.empty(2 * f.grid.n, dtype=np.float64)
    buf[0::2] = f.values.real
    buf[1::2] = f.values.imag
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, f.grid.n, f.grid.x_min, f.grid.x_max))
        fh.write(buf.tobytes())


def load_field(path: str | Path) -> Field:
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) != _HEADER.size:
            raise ConfigError(f"{path}: truncated field container")
        magic, n, x_min, x_max = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ConfigError(f"{path}: not a field container")
        data = np.frombuffer(fh.read(), dtype=np.float64)
    if data.size != 2 * n:
        raise ConfigError(f"{path}: expected {2*n} doubles, found {data.size}")
    grid = make_grid(x_min, x_max, int(n))
    return Field(grid, data[0::2] + 1j * data[1::2])

