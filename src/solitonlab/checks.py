"""Deterministic invariant suite behind ``solitonlab check``.

Each check is a pure function returning (passed, detail); nothing here uses
randomness or timestamps, so two consecutive runs produce byte-identical
reports. The suite is a fast cross-section of the package's correctness
arguments: transform identities, quadrature oracles, scattering unitarity,
the reflectionless potential family, conservation laws, splitting order,
the exponential-window tail bound, and the conserved-energy variant test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .experiments import lemma_error_check, phase_times
from .grid import Field, from_fourier, inner_product, l2_norm, lp_norm, make_grid, to_fourier
from .potentials import PotentialSpec, sample_potential
from .propagation import SolitonParams, StepperConfig, energy, evolve, soliton
from .scattering import bound_states, detect_resonance, project, scattering_table


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _deterministic_field(grid, seed_phase: float = 0.3) -> Field:
    """Structured, reproducible test field (sech bump + two waves)."""
    x = grid.x
    vals = (
        (1.0 / np.cosh(x - 1.0)) * np.exp(1j * (2.0 * x + seed_phase))
        + 0.3 * np.exp(1j * 5.0 * x) / np.cosh(0.5 * x)
        + 0.1j / np.cosh(x + 3.0) ** 2
    )
    return Field(grid, vals)


def check_fourier_roundtrip_parseval() -> tuple[bool, str]:
    grid = make_grid(-20.0, 20.0, 1024)
    f = _deterministic_field(grid)
    back = from_fourier(to_fourier(f))
    rt = float(np.max(np.abs(back.values - f.values)) / np.max(np.abs(f.values)))
    fhat = to_fourier(f)
    parseval = abs(l2_norm(f) ** 2 - grid.dx * float(np.sum(np.abs(fhat.values) ** 2)))
    rel = parseval / l2_norm(f) ** 2
    ok = rt <= 1e-12 and rel <= 1e-10
    return ok, f"roundtrip={rt:.3e} (<=1e-12), parseval_rel={rel:.3e} (<=1e-10)"


def check_norm_oracles() -> tuple[bool, str]:
    grid = make_grid(-16.0, 16.0, 1024)
    sech = Field(grid, 1.0 / np.cosh(grid.x))
    e1 = abs(l2_norm(sech) - math.sqrt(2.0))
    e2 = abs(lp_norm(sech, 4) - (4.0 / 3.0) ** 0.25)
    e3 = abs(lp_norm(sech, np.inf) - 1.0)
    e4 = abs(inner_product(sech, sech) - 2.0)
    e5 = abs(energy(sech) + 1.0 / 6.0)
    ok = e1 <= 1e-8 and e2 <= 1e-8 and e3 <= 1e-12 and e4 <= 1e-8 and e5 <= 1e-6
    return ok, (
        f"|l2-sqrt2|={e1:.2e}, |l4-(4/3)^.25|={e2:.2e}, |linf-1|={e3:.2e}, "
        f"|<s,s>-2|={e4:.2e}, |E+1/6|={e5:.2e}"
    )


def check_scattering_unitarity() -> tuple[bool, str]:
    grid = make_grid(-60.0, 60.0, 2048)
    lams = np.geomspace(0.5, 20.0, 12)
    worst_def = worst_agree = worst_wstd = 0.0
    for spec in (
        PotentialSpec("gaussian", q=2.0, sigma=1.0),
        PotentialSpec("algebraic", q=1.0, s=3.0),
    ):
        for c in scattering_table(sample_potential(spec, grid), lams):
            worst_def = max(worst_def, c.unitarity_defect)
            worst_agree = max(worst_agree, c.t_agreement)
            worst_wstd = max(worst_wstd, c.wronskian_std / abs(c.wronskian))
    ok = worst_def <= 1e-6 and worst_agree <= 1e-6 and worst_wstd <= 1e-6
    return ok, (
        f"max ||T|^2+|R|^2-1|={worst_def:.2e}, max |T_w-T_m|={worst_agree:.2e}, "
        f"max W std/|W|={worst_wstd:.2e} (all <=1e-6)"
    )


def check_reflectionless_family() -> tuple[bool, str]:
    grid = make_grid(-28.0, 28.0, 16384)
    pt1 = sample_potential(PotentialSpec("sech2_scaled", beta=1.0), grid)
    max_r = max(abs(c.R) for c in scattering_table(pt1, [0.5, 1.0, 2.0, 5.0, 10.0]))
    states1 = bound_states(pt1)
    e1_err = abs(states1[0].energy + 0.5) if len(states1) == 1 else math.inf
    phi = states1[0].field if states1 else None
    phi_err = math.inf
    if phi is not None:
        target = 1.0 / np.cosh(grid.x) / math.sqrt(2.0)
        phi_err = math.sqrt(grid.dx * float(np.sum(np.abs(phi.values - target) ** 2)))
    res1 = detect_resonance(PotentialSpec("sech2_scaled", beta=1.0), make_grid(-30.0, 30.0, 2048))
    kappa = (math.sqrt(5.0) - 1.0) / 2.0
    pt5 = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), grid)
    states5 = bound_states(pt5)
    e5_err = abs(states5[0].energy + kappa**2 / 2.0) if len(states5) == 1 else math.inf
    res5 = detect_resonance(PotentialSpec("sech2_scaled", beta=0.5), make_grid(-30.0, 30.0, 2048))
    ok = (
        max_r <= 1e-6
        and e1_err <= 1e-6
        and phi_err <= 1e-5
        and res1.detected
        and res1.stable
        and e5_err <= 1e-6
        and not res5.detected
        and res5.stable
    )
    return ok, (
        f"beta=1: max|R|={max_r:.2e}, |E+0.5|={e1_err:.2e}, phi_err={phi_err:.2e}, "
        f"resonance={res1.detected}; beta=0.5: |E+kappa^2/2|={e5_err:.2e}, "
        f"resonance={res5.detected}"
    )


def check_free_line_resonance() -> tuple[bool, str]:
    spec = PotentialSpec("zero")
    grid = make_grid(-30.0, 30.0, 1024)
    probe = detect_resonance(spec, grid)
    states = bound_states(sample_potential(spec, grid))
    ok = probe.detected and probe.stable and not states
    return ok, f"W(0)={probe.w0_abs:.2e} resonance={probe.detected}, bound_states={len(states)}"


def check_mass_conservation() -> tuple[bool, str]:
    worst = 0.0
    for spec in (
        PotentialSpec("algebraic", q=0.5, s=3.0),
        PotentialSpec("sech2_scaled", beta=0.5),
    ):
        grid = make_grid(-20.0, 20.0, 512)
        pot = sample_potential(spec, grid)
        u0 = soliton(SolitonParams(v=0.5, x0=-5.0), 0.0, grid, check_support=False)
        res = evolve(u0, pot, 10.0, StepperConfig(dt=1e-3, obs_cadence=0.5))
        worst = max(worst, float(np.max(np.abs(res.series.mass / res.series.mass[0] - 1.0))))
    ok = worst <= 1e-10
    return ok, f"max relative drift over 1e4 steps = {worst:.2e} (<=1e-10)"


def check_splitting_convergence() -> tuple[bool, str]:
    grid = make_grid(-30.0, 30.0, 512)
    params = SolitonParams(v=2.0, x0=-8.0)
    errs = []
    for k in range(4):
        dt = 0.1 / 3 / 2**k
        res = evolve(
            soliton(params, 0.0, grid, check_support=False),
            None,
            2.0,
            StepperConfig(dt=dt, obs_cadence=0.1),
            reference=params,
        )
        errs.append(float(res.series.err_l2.max()))
    ratios = [errs[i] / errs[i + 1] for i in range(3)]
    ok = all(3.5 <= r <= 4.5 for r in ratios)
    return ok, "halving ratios = " + ", ".join(f"{r:.3f}" for r in ratios) + " (in [3.5, 4.5])"


def check_energy_variant_discriminates() -> tuple[bool, str]:
    """The conserved functional uses (1/2) V |u|^2; the variant with
    (1/2)|V u|^2 is demonstrably not conserved even at fixed dt."""
    grid = make_grid(-40.0, 40.0, 1024)
    spec = PotentialSpec("sech2_scaled", beta=0.5)
    pot = sample_potential(spec, grid)
    params = SolitonParams(v=2.0, x0=-10.0)

    def alt_energy(u: Field) -> float:
        return energy(u) + 0.5 * grid.dx * float(np.sum(np.abs(pot.values * u.values) ** 2))

    drifts = []
    alt_drift = 0.0
    for dt in (2e-3, 1e-3):
        res = evolve(
            soliton(params, 0.0, grid),
            pot,
            5.0,
            StepperConfig(dt=dt, obs_cadence=0.25, snapshot_every=1),
            reference=params,
        )
        e0 = res.series.energy[0]
        drifts.append(float(np.max(np.abs(res.series.energy - e0)) / abs(e0)))
        if dt == 2e-3:
            alts = np.array([alt_energy(s) for s in res.snapshots])
            alt_drift = float(np.max(np.abs(alts - alts[0])) / abs(alts[0]))
    ratio = drifts[0] / drifts[1]
    ok = 3.0 <= ratio <= 5.5 and alt_drift >= 100.0 * drifts[0]
    return ok, (
        f"conserved drift {drifts[0]:.2e} -> {drifts[1]:.2e} (ratio {ratio:.2f}, ~4); "
        f"|Vu|^2 variant drift {alt_drift:.2e} ({alt_drift/drifts[0]:.1e}x larger)"
    )


def check_tail_bound_window() -> tuple[bool, str]:
    sups = []
    for s in (1.0, 2.0, 3.0):
        lc = lemma_error_check(s, np.linspace(-40.0, 40.0, 21), half_width=80.0, n=1 << 14)
        if not (math.isfinite(lc.sup_ratio) and lc.stable):
            return False, f"s={s}: sup={lc.sup_ratio} stable={lc.stable}"
        sups.append(lc.sup_ratio)
    return True, "sup ratios " + ", ".join(
        f"s={s:g}: {r:.4f}" for s, r in zip((1, 2, 3), sups)
    ) + " (finite, stable under domain doubling)"


def check_phase_timing() -> tuple[bool, str]:
    pt = phase_times(16.0, -2.0, 0.75)
    ok1 = pt.t1 == 0.0 and abs(pt.t2 - 0.25) <= 1e-15 and abs(pt.t_end - 0.25 * math.log(16.0)) <= 1e-15
    widths = [
        abs(phase_times(v, -2.0 * v**0.4, 0.6).interaction_width - 2.0 * v**-0.6)
        for v in (8.0, 16.0, 32.0)
    ]
    ok2 = max(widths) <= 1e-14
    return ok1 and ok2, f"boundary case exact; max |T2-T1-2v^-d| = {max(widths):.1e}"


def check_projection_pythagoras() -> tuple[bool, str]:
    grid = make_grid(-28.0, 28.0, 2048)
    pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), grid)
    state = bound_states(pot)[0]
    f = _deterministic_field(grid)
    a, cont = project(f, state)
    ortho = abs(inner_product(cont, state.field))
    pyth = abs(l2_norm(f) ** 2 - (abs(a) ** 2 + l2_norm(cont) ** 2))
    a2, cont2 = project(cont, state)
    idem = abs(a2) + float(np.max(np.abs(cont2.values - cont.values)))
    ok = ortho <= 1e-10 and pyth <= 1e-9 and idem <= 1e-10
    return ok, f"<cont,phi>={ortho:.1e}, pythagoras defect={pyth:.1e}, idempotence={idem:.1e}"


CHECKS: tuple[tuple[str, Callable[[], tuple[bool, str]]], ...] = (
    ("fourier_roundtrip_parseval", check_fourier_roundtrip_parseval),
    ("norm_quadrature_oracles", check_norm_oracles),
    ("scattering_unitarity", check_scattering_unitarity),
    ("reflectionless_family", check_reflectionless_family),
    ("free_line_resonance", check_free_line_resonance),
    ("mass_conservation", check_mass_conservation),
    ("splitting_convergence", check_splitting_convergence),
    ("energy_variant_discriminates", check_energy_variant_discriminates),
    ("tail_bound_window", check_tail_bound_window),
    ("phase_timing_identities", check_phase_timing),
    ("projection_pythagoras", check_projection_pythagoras),
)


def run_all() -> list[CheckResult]:
    out = []
    for name, fn in CHECKS:
        passed, detail = fn()
        out.append(CheckResult(name=name, passed=bool(passed), detail=detail))
    return out
