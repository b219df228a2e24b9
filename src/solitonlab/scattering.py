"""Stationary scattering theory for H = -1/2 d^2/dx^2 + V.

Frequency-domain solutions f(lam, x) of

    -1/2 f'' + V f = 1/2 lam^2 f        (equivalently f'' = (2V - lam^2) f)

with plane-wave behaviour e^{+i lam x} at the right edge (sign +1) or
e^{-i lam x} at the left edge (sign -1) are integrated inward across the
grid. Because the initial data asserts exact plane waves at the starting
node, every quantity computed here is *exactly* the scattering data of the
edge-truncated potential; the difference to the infinite-line potential is
the reported truncation estimate. The solutions stay plain arrays: jost
returns one direction's (f, f') at one lam, and wronskian reduces four such
arrays to W and its interior spread, which it gates.

Integrator: one real 2x2 transfer matrix per substep, built from the
fourth-order two-point Gauss-Magnus exponential for the linear system
y' = [[0,1],[Q,0]] y. The matrix is the exact propagator for locally
constant Q, so free regions are integrated exactly and the step error is
governed by the variation of V alone. Cells of width dx are subdivided so
that a wave number times the substep stays below SUBSTEP_PHASE radians,
with the wave number sqrt(min(lam, lam_cap)^2 + 2 sup|V|) of each lam on its
own. The cap lam_cap = SUBSTEP_LAM_CAP / ell_V scales with the potential's
feature length ell_V = max|V| / max|V'|: since the step error follows V, a
table past lam_cap is as accurate as one whose substeps keep shrinking with
lam (measured, see SUBSTEP_LAM_CAP), so a table's cost stops growing with
lam there, and V = 0 (lam_cap = 0) takes one exact substep per cell. lam
values with equal substep counts share passes over the cells of at most
PASS_ELEMENTS lam x cells (at least one lam), so a pass's memory is bounded
on any grid and a small grid takes many lam per pass; a table entry does not
depend on which other lam share its batch. V is sampled one substep at a
time, so memory does not grow with the substep count either.

The grid's ends must be symmetric about the center c of V (x_min + x_max
= 2c to a few ulps of the ends, as every table and every admissibility and
resonance domain is built); any other grid is a ConfigError. Every catalog
V is even about c (see potentials), so cell n-1-i, from node n-1-i to node
n-i (cell n-1 ends past the right edge), is the mirror image of cell i. The
two-point Gauss-Magnus substep is time-symmetric (reversing a cell swaps its
Gauss points, flipping c and h while qbar stays), so with S = diag(1, -1)
the mirrored cell's matrix is S adj(C_i) S = [[c11, c01], [c10, c00]]. One
pass builds cells 0 .. n/2-1 and fills the others by that swap.

Both directions then come from one walk over the n cells, from two starts.
Sign -1 starts from its plane wave at node 0. Sign +1, walked from the
right edge in the variables S y, steps node n-1-i -> n-2-i through
S adj(C_{n-2-i}) S, which is cell i+1 again: it is the same walk shifted by
one cell. So it starts at node 0 from S y_+(x_{n-1}) taken back through
cell 0, adj(C_0) S y_+ (C_0 adj(C_0) = det C_0 = 1), and the walk's node
n-i holds S f_+ at grid node i.

The node values follow from the cell matrices by a blocked walk: prefix
products inside blocks of isqrt(n) cells, taken for all blocks at once; the
vectors at the block starts, one block after another; then every node as a
prefix product times its block's start vector, for each start. That is
about 2 sqrt(n) numpy passes instead of n, and both starts share the prefix
products. A node's value passes through at most 2 sqrt(n) rounded matrix
products, against one per cell before it in a cell-by-cell walk.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass
from time import perf_counter

import numpy as np

from .errors import AccuracyError, ConfigError
from .grid import Field, Grid, inner_product, make_grid
from .potentials import (
    ADMISSIBILITY_HALF_WIDTH,
    ADMISSIBILITY_N,
    EDGE_TOL,
    AdmissibilityReport,
    PotentialSpec,
    ResonanceProbe,
    SampledPotential,
    check_admissibility,
    edge_magnitude,
    sample_potential,
)

#: target phase advance per integrator substep (radians), at the wave number
#: sqrt(min(lam, SUBSTEP_LAM_CAP / ell_V)^2 + 2 sup|V|) with ell_V the
#: potential's feature_length
SUBSTEP_PHASE = 0.02
#: lam past SUBSTEP_LAM_CAP / ell_V takes the substep count of that lam: the
#: substep is exact for constant V, so its error follows the variation of V
#: over a substep, not lam. Measured against SUBSTEP_PHASE / 16 tables of
#: 48 lam in [0.5, 40] (n = 2048 on [-60, 60]; algebraic q=0.5 s=3,
#: gaussian q=2 sigma=1, sech2 beta=0.5, poschl_teller ell=2, gaussians
#: q=+-8 sigma=0.05 and q=-4 sigma=0.1): at 8 every table's largest
#: |dT| + |dR| is the uncapped rule's, and no entry exceeds twice the
#: uncapped entry's by more than the reference's own roundoff spread; at 4 an
#: algebraic entry does, at 5.3x. The algebraic table's substeps, summed
#: over lam, fall from 1354 to 648 at 8 (422 at 4)
SUBSTEP_LAM_CAP = 8.0
#: most lam x cells per pass over the cells, so a pass takes
#: max(1, PASS_ELEMENTS // (n/2)) lam (8 at n = 2048); a pass holds about a
#: dozen (rows, n/2) arrays, so memory does not grow with the lam that share
#: a substep count, and a small grid still fills a pass
PASS_ELEMENTS = 8 * 1024
#: |W(0)| below this counts as a zero-energy resonance (codimension-one
#: condition; exact zeros are unattainable numerically)
RESONANCE_EPS = 1e-4
#: eigenvalues below -NEGATIVE_EPS count as bound states
NEGATIVE_EPS = 1e-6
#: largest relative interior spread of a Wronskian (see wronskian)
WRONSKIAN_REL_TOL = 1e-4
#: most substeps per cell the uncapped wave number sqrt(lam^2 + 2 sup|V|)
#: may ask for: this bounds the lam and the wells a walk accepts, not what a
#: walk costs. A deeper well is rejected rather than walked for hours
#: (sech2_scaled beta = 1e300 would need 2.8e150 substeps per cell; one walk
#: over 2048 nodes of a centred grid takes about 0.08 ms per substep per
#: cell, gaussian q=1 sigma=0.005 at lam = 100 and 400, 2 vCPUs, numpy 2.4.6)
MAX_SUBSTEPS = 1 << 16
#: most lam x grid nodes in one table. A table costs at most about 200 bytes
#: per lam-node at its peak: ``solitonlab spectral`` peaked at 169 MB with
#: 2^20 lam-nodes and 302 MB with 2^21 (n = 2048, algebraic q=0.5 s=3; 410 MB
#: at n = 16 with 2^17 lam, V = 0; 2 vCPUs, numpy 2.4.6), so a table at this
#: cap peaks near 840 MB
MAX_TABLE_NODES = 1 << 22
#: largest spacing of the bound-state solve, the admissibility domain's: a
#: second-order finite-difference eigenvector at a run's dx would set a_abs's
#: error (sech2_scaled beta 0.5, v = 6..16: peak a_abs 1.7-5.7% above its
#: converged value at dx 0.12-0.15, <= 0.18% at a quarter of that)
BOUND_STATE_DX = 2.0 * ADMISSIBILITY_HALF_WIDTH / ADMISSIBILITY_N

_GAUSS_OFFSETS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)


@dataclass(frozen=True)
class ScatteringCoefficients:
    lam: float
    T: complex
    R: complex
    wronskian: complex
    unitarity_defect: float
    t_agreement: float
    wronskian_std: float


@dataclass(frozen=True)
class BoundState:
    """Eigenfunction of H at negative energy, sign fixed positive at the peak:
    norm 1 on bound_states' solve grid, to rectangle-rule accuracy on its own."""

    energy: float
    field: Field


def _substeps(grid: Grid, lam: float, spec: PotentialSpec) -> int:
    """Substeps per cell at frequency ``lam``: the wave number
    sqrt(min(lam, cap)^2 + 2 sup|V|) times the substep stays below
    SUBSTEP_PHASE, with cap = SUBSTEP_LAM_CAP / spec.feature_length. A lam
    whose uncapped wave number sqrt(lam^2 + 2 sup|V|) would ask for more
    than MAX_SUBSTEPS is a ConfigError."""
    sup_v = spec.sup_norm
    count = grid.dx * math.sqrt(lam * lam + 2.0 * sup_v) / SUBSTEP_PHASE
    if not count <= MAX_SUBSTEPS:  # inf, too
        raise ConfigError(
            f"lam={lam:g} with sup|V|={sup_v:.3g} is outside the range a walk accepts: its "
            f"uncapped wave number asks for {count:.3g} substeps per cell of dx={grid.dx:.3g}, "
            f"more than {MAX_SUBSTEPS}"
        )
    ell = spec.feature_length
    cap = SUBSTEP_LAM_CAP / ell if ell > 0 else math.inf
    if lam > cap:
        count = grid.dx * math.sqrt(cap * cap + 2.0 * sup_v) / SUBSTEP_PHASE
    return max(1, math.ceil(count))


def _require_small_edges(spec: PotentialSpec, grid: Grid) -> None:
    v_edge = edge_magnitude(spec, grid)
    if v_edge >= EDGE_TOL:
        raise ConfigError(
            f"|V| = {v_edge:.3g} at the domain edge exceeds edge tolerance {EDGE_TOL:g}; "
            "plane-wave asymptotics invalid, enlarge the domain"
        )


def _cell_matrices(
    spec: PotentialSpec, starts: np.ndarray, h: float, m: int, lam2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Transfer matrix of every cell for each lam^2 in ``lam2``: the product
    of ``m`` substep exponentials of length ``h`` from the cell ``starts``.

    Returns its entries (c00, c01, c10, c11), each of shape (len(lam2),
    len(starts)). V is sampled one substep at a time and every substep
    reuses the same buffers, so memory does not grow with ``m``; each row is
    bitwise what its lam^2 alone gives.
    """
    shape = (lam2.size, starts.size)
    c00, c11 = np.ones(shape), np.ones(shape)
    c01, c10 = np.zeros(shape), np.zeros(shape)
    qbar, musq, omega, cosm, sinhc, t0, t1 = np.empty((7, *shape))
    positive, small = np.empty((2, *shape), dtype=bool)
    lam2 = lam2[:, None]
    h2 = h * h
    sqrt3_h2_6 = math.sqrt(3.0) * h2 / 6.0
    for step in range(m):
        v1 = spec(starts + h * (step + _GAUSS_OFFSETS[0]))
        v2 = spec(starts + h * (step + _GAUSS_OFFSETS[1]))
        c = sqrt3_h2_6 * (v1 - v2)  # (q1 - q2) h^2 sqrt(3)/12 with q = 2V - lam^2
        np.subtract(v1 + v2, lam2, out=qbar)
        np.multiply(qbar, h2, out=musq)
        np.add(musq, c * c, out=musq)
        np.sqrt(np.abs(musq, out=omega), out=omega)
        np.cos(omega, out=cosm)
        np.sin(omega, out=sinhc)
        if np.greater_equal(musq, 0.0, out=positive).any():
            np.cosh(omega, out=cosm, where=positive)
            np.sinh(omega, out=sinhc, where=positive)
        if np.less(omega, 1e-8, out=small).any():
            np.divide(sinhc, omega, out=sinhc, where=~small)
            sinhc[small] = 1.0 + musq[small] / 6.0
        else:
            np.divide(sinhc, omega, out=sinhc)
        # the substep matrix [[m00, m01], [m10, m11]], in place
        np.multiply(sinhc, c, out=t0)
        m11 = np.subtract(cosm, t0, out=musq)
        m00 = np.add(cosm, t0, out=cosm)
        m01 = np.multiply(sinhc, h, out=sinhc)
        m10 = np.multiply(m01, qbar, out=qbar)
        # C <- M C; the new top row goes to t0, whose buffer swaps with the old
        np.add(np.multiply(m00, c00, out=t0), np.multiply(m01, c10, out=t1), out=t0)
        np.add(np.multiply(m10, c00, out=t1), np.multiply(m11, c10, out=c10), out=c10)
        c00, t0 = t0, c00
        np.add(np.multiply(m00, c01, out=t0), np.multiply(m01, c11, out=t1), out=t0)
        np.add(np.multiply(m10, c01, out=t1), np.multiply(m11, c11, out=c11), out=c11)
        c01, t0 = t0, c01
    return c00, c01, c10, c11


def _walk(
    c: Sequence[np.ndarray], y_f: np.ndarray, y_g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """All nodes of y_{i+1} = C_i y_i from each of S starts y_0 = (y_f, y_g),
    for every row, by the blocked walk (see the module docstring).

    ``c`` holds the entries (c00, c01, c10, c11) of the C_i, four (K, N)
    arrays (views will do), and ``y_f`` and ``y_g`` the starts, (K, S) each.
    The result is (f, f'), each (K, S, N+1), in walk order; each start's
    nodes are bitwise what that start alone gives.
    """
    k, cells = c[0].shape
    starts = y_f.shape[1]
    # an identity cell in front: node i is slot i's prefix product times its block's start
    slots = cells + 1
    b = math.isqrt(slots)
    blocks = -(-slots // b)
    # the last block is padded past the last node; no result reads the padding
    p = np.zeros((4, k, blocks * b))
    p[0, :, 0] = p[3, :, 0] = 1.0
    for dst, src in zip(p, c):
        dst[:, 1:slots] = src
    p00, p01, p10, p11 = p.reshape(4, k, blocks, b)
    for j in range(1, b):
        m00, m01, m10, m11 = p00[..., j], p01[..., j], p10[..., j], p11[..., j]
        q00, q01, q10, q11 = p00[..., j - 1], p01[..., j - 1], p10[..., j - 1], p11[..., j - 1]
        p00[..., j], p01[..., j], p10[..., j], p11[..., j] = (
            m00 * q00 + m01 * q10,
            m00 * q01 + m01 * q11,
            m10 * q00 + m11 * q10,
            m10 * q01 + m11 * q11,
        )
    # start-major rows from here, so that each start's nodes are one contiguous block
    e00, e01, e10, e11 = np.tile(p[..., b - 1 :: b], (1, starts, 1))
    s_fg = np.empty((2, starts * k, blocks), dtype=np.complex128)
    s_f, s_g = s_fg
    s_f[:, 0], s_g[:, 0] = y_f.T.ravel(), y_g.T.ravel()
    for j in range(blocks - 1):
        s_f[:, j + 1] = e00[:, j] * s_f[:, j] + e01[:, j] * s_g[:, j]
        s_g[:, j + 1] = e10[:, j] * s_f[:, j] + e11[:, j] * s_g[:, j]
    f, g = np.empty((2, starts, k, blocks, b), dtype=np.complex128)
    for node, pair in zip((f, g), p.reshape(2, 2, k, blocks, b)):
        # node = pair[0] s_f + pair[1] s_g, summed into node without a temporary
        np.einsum("tkjb,tskj->skjb", pair, s_fg.reshape(2, starts, k, blocks), out=node)
    return tuple(node.reshape(starts, k, -1)[..., :slots].transpose(1, 0, 2) for node in (f, g))


def _require_centred(spec: PotentialSpec, grid: Grid) -> None:
    """Raise ConfigError unless the grid's ends are symmetric about the
    center of V (x_min + x_max = 2 c to a few ulps of the ends), which
    _propagate_batch's mirrored cells need."""
    ends = max(abs(grid.x_min), abs(grid.x_max))
    if not abs(grid.x_min + grid.x_max - 2.0 * spec.center) <= 4.0 * math.ulp(ends):
        raise ConfigError(f"the grid [{grid.x_min:.17g}, {grid.x_max:.17g}] is not symmetric "
                          f"about the potential's center {spec.center:.17g}")


def _propagate_batch(
    spec: PotentialSpec, grid: Grid, lams: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Integrate the frequency ODE inward from both edges for a batch of
    lam: one walk from two starts over cells built for half of the grid,
    which must be centred on V (see the module docstring), with |V| below
    EDGE_TOL at its ends.

    Returns (f, fprime) for sign +1, then for sign -1: for both, each array
    has shape (len(lams), n) and holds the grid nodes from left to right
    (views of the walk). Each row is bitwise what its lam alone gives; an
    overflow raises AccuracyError.
    """
    _require_small_edges(spec, grid)
    _require_centred(spec, grid)
    n, half = grid.n, grid.n // 2
    pass_rows = max(1, PASS_ELEMENTS // half)
    lams = np.asarray(lams, dtype=np.float64)
    counts = np.array([_substeps(grid, abs(lam), spec) for lam in lams])
    # cell i propagates node i -> i+1, and cell n-1 node n-1 -> the right edge
    cells = np.empty((4, lams.size, n))
    with np.errstate(over="ignore", invalid="ignore"):
        for m in map(int, np.unique(counts)):
            group = np.flatnonzero(counts == m)
            for rows in np.array_split(group, -(-group.size // pass_rows)):
                lam2 = lams[rows] * lams[rows]
                built = _cell_matrices(spec, grid.x[:half], grid.dx / m, m, lam2)
                for dst, src in zip(cells, built):
                    dst[rows, :half] = src
        # cell n-1-i is the mirror image of cell i, with the matrix
        # S adj(C) S = [[c11, c01], [c10, c00]], S = diag(1, -1)
        for dst, src in ((0, 3), (1, 1), (2, 2), (3, 0)):
            cells[dst, :, half:] = cells[src, :, half - 1 :: -1]
        # both start at node 0: sign -1's plane wave, and S y_+ taken back through cell 0
        c00, c01, c10, c11 = cells[:, :, 0]
        minus = np.exp(-1j * lams * grid.x[0])
        plus = np.exp(1j * lams * grid.x[-1])
        plus_g = 1j * lams * plus
        f, g = _walk(cells,
                     np.stack([minus, c11 * plus + c01 * plus_g], axis=1),
                     np.stack([-1j * lams * minus, -(c10 * plus + c00 * plus_g)], axis=1))
        np.negative(g[:, 1], out=g[:, 1])
    out = [(f[:, 1, n:0:-1], g[:, 1, n:0:-1]), (f[:, 0, :n], g[:, 0, :n])]
    finite = np.logical_and.reduce([np.isfinite(a).all(axis=1) for pair in out for a in pair])
    if not finite.all():
        raise AccuracyError(f"non-finite values while integrating lam={lams[~finite].tolist()}")
    return out


# No package code calls jost; it stays only because perfbench/tracer.py wraps it
def jost(potential: SampledPotential, lam: float, sign: int) -> tuple[np.ndarray, np.ndarray]:
    """(f, f') of the solution asymptotic to e^{i*sign*lam*x} at the
    sign-side edge, on the potential's grid: its row of _propagate_batch.

    lam = 0 is allowed (plane-wave data degenerates to (1, 0)) and is what
    resonance detection uses; scattering coefficients need lam > 0.
    """
    if sign not in (1, -1):
        raise ConfigError("sign must be +1 or -1")
    if not math.isfinite(lam):
        raise ConfigError("lam must be finite")
    f, fp = _propagate_batch(potential.spec, potential.grid, np.array([lam]))[0 if sign > 0 else 1]
    return f[0], fp[0]


def _interior(n: int) -> slice:
    return slice(n // 8, n - n // 8)


def _interior_wronskian(fp, fp_prime, fm, fm_prime) -> tuple[np.ndarray, np.ndarray]:
    """Median and RMS spread of  f_+ f_-' - f_- f_+'  over the interior, one
    per row of the (K, n) arguments. Rows are reduced on their own, so each
    result is bitwise what its row alone gives."""
    sl = _interior(fp.shape[1])
    w = fp[:, sl] * fm_prime[:, sl] - fm[:, sl] * fp_prime[:, sl]
    value = np.empty(w.shape[0], dtype=np.complex128)
    value.real, value.imag = np.median(w.real, axis=1), np.median(w.imag, axis=1)
    return value, np.sqrt(np.mean(np.abs(w - value[:, None]) ** 2, axis=1))


def wronskian(f_plus, fprime_plus, f_minus, fprime_minus) -> tuple[complex, float]:
    """Median and RMS spread of  f_+ f_-' - f_- f_+'  over the interior, for
    one lam's (n,) arrays of one shape (else ConfigError). Every cell matrix
    has det 1, so the walk conserves W and the pointwise values agree up to
    roundoff; a spread beyond ``WRONSKIAN_REL_TOL`` (relative to the value,
    with a floor on the natural scale of the product) raises AccuracyError."""
    shapes = [np.shape(a) for a in (f_plus, fprime_plus, f_minus, fprime_minus)]
    if len(set(shapes)) != 1:
        raise ConfigError(f"a Wronskian needs four arrays of one shape, got {shapes}")
    values, stds = _interior_wronskian(f_plus[None], fprime_plus[None],
                                       f_minus[None], fprime_minus[None])
    value, std = complex(values[0]), float(stds[0])
    sl = _interior(f_plus.size)
    scale = float(np.median(np.abs(f_plus[sl]) * np.abs(fprime_minus[sl])
                            + np.abs(f_minus[sl]) * np.abs(fprime_plus[sl])))
    if std > WRONSKIAN_REL_TOL * (abs(value) + 1e-3 * scale):
        raise AccuracyError(
            f"Wronskian varies across the domain (std {std:.3g} vs |W| {abs(value):.3g}); "
            "roundoff or cancellation in the walk exceeds the tolerance"
        )
    return value, std


def detect_resonance(spec: PotentialSpec, grid: Grid) -> ResonanceProbe:
    """Zero-energy resonance test: |W(0)| < RESONANCE_EPS, cross-checked on a
    domain twice as large (same spacing). Disagreement marks the probe
    unstable (inconclusive)."""

    def w0_abs(g: Grid) -> float:
        (fp, fp_prime), (fm, fm_prime) = _propagate_batch(spec, g, np.zeros(1))
        return abs(wronskian(fp[0], fp_prime[0], fm[0], fm_prime[0])[0])

    w0 = w0_abs(grid)
    doubled = make_grid(
        grid.x_min - grid.length / 2.0, grid.x_max + grid.length / 2.0, 2 * grid.n
    )
    w0d = w0_abs(doubled)
    detected = w0 < RESONANCE_EPS
    stable = detected == (w0d < RESONANCE_EPS)
    return ResonanceProbe(bool(detected), w0, w0d, bool(stable))


def _coeffs_from_batch(
    grid: Grid,
    lams: np.ndarray,
    fp_f: np.ndarray,
    fp_g: np.ndarray,
    fm_f: np.ndarray,
    fm_g: np.ndarray,
) -> list[ScatteringCoefficients]:
    w_med, w_std = _interior_wronskian(fp_f, fp_g, fm_f, fm_g)
    degenerate = np.abs(w_med) < 1e-12
    if degenerate.any():
        raise AccuracyError(f"degenerate Wronskian at lam={lams[np.argmax(degenerate)]}")
    t_w = -2j * lams / w_med
    # decompose f_+ = a e^{i lam x} + b e^{-i lam x} at the far (left) edge
    phase = np.exp(1j * lams * grid.x[0])
    a = 0.5 * (fp_f[:, 0] + fp_g[:, 0] / (1j * lams)) / phase
    b = 0.5 * (fp_f[:, 0] - fp_g[:, 0] / (1j * lams)) * phase
    r = b / a
    defect = np.abs(np.abs(t_w) ** 2 + np.abs(r) ** 2 - 1.0)
    agreement = np.abs(t_w - 1.0 / a)
    return [
        ScatteringCoefficients(
            lam=float(lams[i]),
            T=complex(t_w[i]),
            R=complex(r[i]),
            wronskian=complex(w_med[i]),
            unitarity_defect=float(defect[i]),
            t_agreement=float(agreement[i]),
            wronskian_std=float(w_std[i]),
        )
        for i in range(lams.size)
    ]


def require_table_budget(lam_points: int, n: int) -> None:
    """Raise ConfigError if a table of ``lam_points`` lam on ``n`` nodes
    exceeds MAX_TABLE_NODES, before anything of its size is allocated."""
    if lam_points * n > MAX_TABLE_NODES:
        raise ConfigError(f"{lam_points} lambda x {n} nodes = {lam_points * n} exceeds the "
                          f"table budget of {MAX_TABLE_NODES} lambda-nodes")


def scattering_table(potential: SampledPotential, lams) -> list[ScatteringCoefficients]:
    """Transmission/reflection coefficients for a batch of lam > 0 within
    the table budget.

    T comes from the Wronskian (-2 i lam / W); R and 1/a come from
    plane-wave matching f_+ = a e^{i lam x} + b e^{-i lam x} at the far
    edge. The walk conserves W to roundoff, so T equals 1/a to roundoff:
    ``t_agreement``, ``unitarity_defect`` and ``wronskian_std`` bound roundoff
    and cancellation, not the integrator's truncation error.
    """
    lams = np.atleast_1d(np.asarray(lams, dtype=np.float64))
    if lams.size == 0:
        raise ConfigError("scattering table needs at least one lam")
    if np.any(lams <= 0.0) or not np.all(np.isfinite(lams)):
        raise ConfigError("scattering coefficients need lam > 0")
    grid = potential.grid
    require_table_budget(lams.size, grid.n)
    (fp_f, fp_g), (fm_f, fm_g) = _propagate_batch(potential.spec, grid, lams)
    return _coeffs_from_batch(grid, lams, fp_f, fp_g, fm_f, fm_g)


def bound_states(
    potential: SampledPotential, *, energies_only: bool = False
) -> list[BoundState] | list[float]:
    """All eigenvalues of H below -NEGATIVE_EPS with normalized eigenvectors.

    Second-order central differences with Dirichlet walls at the domain edges
    (exponentially localized eigenfunctions make the wall placement
    irrelevant on adequate domains), on the potential's domain refined by the
    smallest power of two r with dx / r <= BOUND_STATE_DX; the states are
    sampled at the potential's nodes, every r-th solve node. V comes from
    the potential's analytic form at the solve nodes. With ``energies_only``
    the same energies come back as floats from an eigenvalues-only solve, in
    memory linear in the grid however many states a deep well holds.
    """
    grid = potential.grid
    if np.min(potential.values) >= 0.0:  # Gershgorin: no eigenvalue below min V
        return []
    # the slack absorbs the rounding of a shifted domain's dx
    r = 2 ** max(0, math.ceil(math.log2(grid.dx / BOUND_STATE_DX) - 1e-12))
    solve = make_grid(grid.x_min, grid.x_max, r * grid.n)
    v = potential.spec(solve.x)
    if energies_only:
        return [float(energy) for energy in _tridiag_eig(v, solve.dx, vectors=False)]
    energies, vectors = _tridiag_eig(v, solve.dx)
    states = []
    for j, energy in enumerate(energies):
        phi = vectors[:, j] / math.sqrt(solve.dx)
        if phi[int(np.argmax(np.abs(phi)))] < 0:
            phi = -phi
        states.append(BoundState(float(energy), Field(grid, phi[::r].astype(np.complex128))))
    return states


def _tridiag_eig(v: np.ndarray, dx: float, vectors: bool = True):
    """Eigenpairs of the finite-difference H below -NEGATIVE_EPS, in
    increasing energy; only the energies when ``vectors`` is false."""
    import scipy.linalg  # deferred: only a well needs it, and it is most of start-up

    diag = 1.0 / dx**2 + v
    off = np.full(v.size - 1, -0.5 / dx**2)
    select = {"select": "v", "select_range": (float(np.min(v)) - 1.0, -NEGATIVE_EPS)}
    if not vectors:
        return np.sort(scipy.linalg.eigvalsh_tridiagonal(diag, off, **select))
    energies, vecs = scipy.linalg.eigh_tridiagonal(diag, off, **select)
    order = np.argsort(energies)
    return energies[order], vecs[:, order]


def project(f: Field, bound_state: BoundState | None) -> tuple[complex, Field]:
    """Split f into its bound-mode amplitude and the rest:
    a = <f, phi>, continuum = f - a*phi. Without a bound state a = 0."""
    if bound_state is None:
        return 0.0 + 0.0j, f
    if f.grid != bound_state.field.grid:
        raise ConfigError("field and bound state live on different grids")
    a = inner_product(f, bound_state.field)
    return a, Field(f.grid, f.values - a * bound_state.field.values)


@dataclass(frozen=True)
class SpectralReport:
    """T/R table and admissibility report (bound states, resonance) for one
    potential; the admissibility report is judged on its own domain, not on
    the table's. ``table_s`` (the table's wall time; the report's is
    ``admissibility.wall_s``) and ``table_substeps`` (the table's substeps
    per cell, summed over lam) are telemetry, left out of :meth:`to_dict`."""

    coefficients: tuple[ScatteringCoefficients, ...]
    admissibility: AdmissibilityReport
    truncation_estimate: float
    table_s: float
    table_substeps: int

    @property
    def max_unitarity_defect(self) -> float:
        return max((c.unitarity_defect for c in self.coefficients), default=0.0)

    @property
    def max_t_agreement(self) -> float:
        return max((c.t_agreement for c in self.coefficients), default=0.0)

    @property
    def sup_reflection_times_lam(self) -> float:
        """Measured sup of |R(lam)| * lam over the table; the asymptotic
        constant is reported, never asserted."""
        return max((abs(c.R) * c.lam for c in self.coefficients), default=0.0)

    def to_dict(self) -> dict:
        resonance = self.admissibility.resonance  # None when judged inconclusive at an edge
        return {
            "potential": self.admissibility.spec.to_dict(),
            "bound_state_energies": list(self.admissibility.bound_state_energies),
            "resonance": asdict(resonance) if resonance is not None else None,
            "max_unitarity_defect": self.max_unitarity_defect,
            "max_t_agreement": self.max_t_agreement,
            "sup_reflection_times_lam": self.sup_reflection_times_lam,
            "truncation_estimate": self.truncation_estimate,
            "admissibility": self.admissibility.to_dict(),
            "table": [
                {
                    "lambda": c.lam,
                    "re_T": c.T.real,
                    "im_T": c.T.imag,
                    "re_R": c.R.real,
                    "im_R": c.R.imag,
                    "unitarity_defect": c.unitarity_defect,
                }
                for c in self.coefficients
            ],
        }


def build_spectral_report(spec: PotentialSpec, grid: Grid, lams) -> SpectralReport:
    """The T/R table on ``grid``, with the admissibility report of ``spec``."""
    start = perf_counter()
    coeffs = scattering_table(sample_potential(spec, grid), lams)
    table_s = perf_counter() - start
    admissibility = check_admissibility(spec)
    half = min(abs(grid.x_min - spec.center), abs(grid.x[-1] - spec.center))
    lam_min = min(c.lam for c in coeffs)
    truncation = spec.tail_integral(half) / max(lam_min, 1.0)
    return SpectralReport(
        coefficients=tuple(coeffs),
        admissibility=admissibility,
        truncation_estimate=float(truncation),
        table_s=table_s,
        table_substeps=sum(_substeps(grid, c.lam, spec) for c in coeffs),
    )
