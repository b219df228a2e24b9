"""Test oracle for the bound-state case: the residual of the bound-mode
amplitude equation along an evolved run.

Projecting  i u_t = -1/2 u_xx + V u - |u|^2 u  onto a bound state phi of
-1/2 d^2/dx^2 + V with energy -lam gives, for a = <u, phi>,

    i a' = -lam a - <|u|^2 u, phi>,

the equation behind Datchev and Holmer's captured mass. The program does
not compute it; the propagation tests and acceptance criterion 10 check
``evolve``'s snapshots against it.
"""

import math
from dataclasses import dataclass

import numpy as np

from solitonlab.errors import ConfigError
from solitonlab.scattering import BoundState


@dataclass(frozen=True)
class BoundModeResidual:
    """Consistency of the bound-mode amplitude with its projected equation
    i a' = -lam a - <|u|^2 u, phi>  (lam = -energy > 0)."""

    max_residual: float
    floor: float
    ratio: float


def bound_mode_residual(
    times,
    snapshots,
    bound_state: BoundState,
) -> BoundModeResidual:
    """Evaluate the amplitude-equation residual along uniformly sampled
    snapshots, with a' from central differences.

    The returned ``floor`` is the intrinsic O(cadence^2) error of the central
    difference, (tau^2/6) max|a'''| with a''' estimated from third
    differences of the data; ``ratio`` is max_residual / floor.
    """
    times = np.asarray(times, dtype=np.float64)
    if times.size < 3 or len(snapshots) != times.size:
        raise ConfigError("need at least 3 uniformly spaced snapshots")
    taus = np.diff(times)
    tau = float(taus[0])
    if tau <= 0 or not np.allclose(taus, tau, rtol=1e-9, atol=1e-12):
        raise ConfigError("snapshots must be at uniform cadence")
    grid = snapshots[0].grid
    phi = bound_state.field.values
    lam = -bound_state.energy
    a = np.empty(times.size, dtype=np.complex128)
    cubic = np.empty_like(a)
    for i, snap in enumerate(snapshots):
        u = snap.values
        a[i] = grid.dx * np.sum(u * np.conj(phi))
        cubic[i] = grid.dx * np.sum(np.abs(u) ** 2 * u * np.conj(phi))
    a_dot = (a[2:] - a[:-2]) / (2.0 * tau)
    resid = np.abs(1j * a_dot + lam * a[1:-1] + cubic[1:-1])
    max_res = float(resid.max()) if resid.size else 0.0
    max_amp = float(np.max(np.abs(a)))
    if times.size >= 5:
        a3 = (a[4:] - 2.0 * a[3:-1] + 2.0 * a[1:-3] - a[:-4]) / (2.0 * tau**3)
        a3_max = float(np.max(np.abs(a3)))
    else:
        a3_max = lam**3 * max_amp
    floor = tau**2 / 6.0 * a3_max
    if max_res == 0.0:
        ratio = 0.0
    elif floor == 0.0:
        ratio = math.inf
    else:
        ratio = max_res / floor
    return BoundModeResidual(max_res, floor, ratio)
