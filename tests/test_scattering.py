"""Frequency-domain solutions, Wronskians, T/R coefficients and bound states.

Oracles: the free line (everything closed-form), the reflectionless
sech^2 family (depth 1 well: zero reflection, bound state at -1/2 with
eigenfunction sech/sqrt(2); depth 1/2: single bound state at -kappa^2/2
with kappa = (sqrt(5)-1)/2), and the Born limit |T-1|*lam -> integral V.
"""

import math
import tracemalloc

import numpy as np
import pytest

from solitonlab import scattering
from solitonlab.errors import AccuracyError, ConfigError
from solitonlab.grid import Field, inner_product, l2_norm, make_grid
from solitonlab.potentials import PotentialSpec, check_admissibility, sample_potential
from solitonlab.scattering import (
    bound_states,
    detect_resonance,
    jost,
    project,
    scattering_table,
    wronskian,
)

KAPPA = (math.sqrt(5.0) - 1.0) / 2.0


@pytest.fixture(scope="module")
def grid():
    return make_grid(-30.0, 30.0, 2048)


@pytest.fixture(scope="module")
def free(grid):
    return sample_potential(PotentialSpec("zero"), grid)


@pytest.fixture(scope="module")
def well_one(grid):
    return sample_potential(PotentialSpec("sech2_scaled", beta=1.0), grid)


class TestJost:
    def test_free_plane_wave(self, grid, free):
        sol = jost(free, 2.0, +1)
        assert np.max(np.abs(sol.f - np.exp(2j * grid.x))) <= 1e-10
        assert np.max(np.abs(sol.fprime - 2j * np.exp(2j * grid.x))) <= 1e-10

    def test_free_zero_frequency_constant(self, grid, free):
        sol = jost(free, 0.0, +1)
        assert np.max(np.abs(sol.f - 1.0)) == 0.0
        assert np.max(np.abs(sol.fprime)) == 0.0

    def test_bad_sign_rejected(self, free):
        with pytest.raises(ConfigError):
            jost(free, 1.0, 2)

    def test_edge_tolerance_enforced(self):
        small = make_grid(-5.0, 5.0, 64)
        pot = sample_potential(PotentialSpec("algebraic", q=1.0, s=3.0), small)
        with pytest.raises(ConfigError):
            jost(pot, 1.0, +1)


class TestWronskian:
    def test_free_value(self, free):
        w = wronskian(jost(free, 3.0, +1), jost(free, 3.0, -1))
        assert abs(w.value - (-6j)) <= 1e-10

    def test_free_zero_frequency(self, free):
        w = wronskian(jost(free, 0.0, +1), jost(free, 0.0, -1))
        assert abs(w.value) <= 1e-12

    def test_depth_one_zero_frequency(self, well_one):
        # zero-energy solutions are tanh-like; the Wronskian vanishes
        w = wronskian(jost(well_one, 0.0, +1), jost(well_one, 0.0, -1))
        assert abs(w.value) <= 1e-4

    def test_constancy_invariant(self, grid):
        for spec in (
            PotentialSpec("sech2_scaled", beta=1.0),
            PotentialSpec("gaussian", q=2.0, sigma=1.0),
        ):
            pot = sample_potential(spec, grid)
            for lam in (0.5, 1.0, 5.0):
                w = wronskian(jost(pot, lam, +1), jost(pot, lam, -1))
                assert w.std <= 1e-6 * abs(w.value)

    def test_frequency_mismatch_rejected(self, free):
        with pytest.raises(ConfigError):
            wronskian(jost(free, 1.0, +1), jost(free, 2.0, -1))


class TestResonance:
    def test_free_line(self):
        probe = detect_resonance(PotentialSpec("zero"), make_grid(-30.0, 30.0, 1024))
        assert probe.detected and probe.stable

    def test_depth_one_resonant(self):
        probe = detect_resonance(PotentialSpec("sech2_scaled", beta=1.0), make_grid(-30.0, 30.0, 2048))
        assert probe.detected and probe.stable

    def test_repulsive_gaussian_not_resonant(self):
        probe = detect_resonance(PotentialSpec("gaussian", q=2.0, sigma=1.0), make_grid(-30.0, 30.0, 2048))
        assert not probe.detected and probe.stable
        assert probe.w0_abs > 1.0


class TestScatteringCoefficients:
    def test_free_identity(self, free):
        (c,) = scattering_table(free, [1.5])
        assert abs(c.T - 1.0) <= 1e-12
        assert abs(c.R) <= 1e-12

    def test_reflectionless_family(self, well_one):
        for c in scattering_table(well_one, np.linspace(0.5, 10.0, 12)):
            assert abs(c.R) <= 1e-6
            assert abs(abs(c.T) - 1.0) <= 1e-6

    def test_unitarity_and_consistency_sweep(self):
        grid = make_grid(-60.0, 60.0, 2048)
        lams = np.geomspace(0.5, 20.0, 50)
        for spec in (
            PotentialSpec("gaussian", q=2.0, sigma=1.0),
            PotentialSpec("algebraic", q=1.0, s=3.0),
            PotentialSpec("algebraic", q=-0.5, s=2.5),
            PotentialSpec("sech2_scaled", beta=0.5),
        ):
            table = scattering_table(sample_potential(spec, grid), lams)
            assert max(c.unitarity_defect for c in table) <= 1e-6
            assert max(c.t_agreement for c in table) <= 1e-6

    def test_born_limit_algebraic(self):
        # |T-1| * lam -> integral V = 2q for the s=3 profile
        grid = make_grid(-60.0, 60.0, 2048)
        pot = sample_potential(PotentialSpec("algebraic", q=1.0, s=3.0), grid)
        g = [abs(c.T - 1.0) * c.lam for c in scattering_table(pot, [4.0, 8.0, 16.0, 32.0, 64.0])]
        for val in g:
            assert abs(val - 2.0) <= 0.05
        assert g[-1] <= 4.0 * g[0]

    def test_rejects_nonpositive_lam(self, free):
        with pytest.raises(ConfigError):
            scattering_table(free, [0.0])
        with pytest.raises(ConfigError):
            scattering_table(free, [-1.0])


class TestIntegratorOrder:
    def test_fourth_order_in_substep(self, monkeypatch):
        # coarsen the substep cap so m = 1, 2, 4 per cell and compare the
        # transmission coefficient against the tight-default reference
        import solitonlab.scattering as sc

        g = make_grid(-30.0, 30.0, 512)
        pot = sample_potential(PotentialSpec("gaussian", q=2.0, sigma=1.0), g)
        ref = scattering_table(pot, [1.0])[0].T
        errs = []
        for theta in (0.28, 0.14, 0.07):
            monkeypatch.setattr(sc, "SUBSTEP_PHASE", theta)
            errs.append(abs(scattering_table(pot, [1.0])[0].T - ref))
        for i in range(2):
            assert 12.0 <= errs[i] / errs[i + 1] <= 20.0  # ~2^4 per halving


def _uncapped_substeps(grid, lam, sup_v):
    # the substep rule before lam was capped: sqrt(lam^2 + 2 sup|V|) h <= SUBSTEP_PHASE
    return max(1, math.ceil(grid.dx * math.sqrt(lam * lam + 2.0 * sup_v) / scattering.SUBSTEP_PHASE))


class TestSubstepRule:
    """Past lam_cap = SUBSTEP_LAM_CAP / feature_length the substep count
    stops growing with lam: the substep is exact for constant V, so its error
    follows the variation of V over a substep."""

    GRID = make_grid(-60.0, 60.0, 2048)
    SPECS = [
        PotentialSpec("algebraic", q=0.5, s=3.0),
        PotentialSpec("gaussian", q=2.0, sigma=1.0),
        PotentialSpec("sech2_scaled", beta=0.5),
        PotentialSpec("poschl_teller", ell=2.0),
        PotentialSpec("gaussian", q=-4.0, sigma=0.1),
        PotentialSpec("gaussian", q=8.0, sigma=0.05),
    ]

    @pytest.mark.parametrize("spec", SPECS, ids=["algebraic", "gaussian", "sech2_half",
                                                 "poschl_teller", "narrow_well", "narrow_barrier"])
    def test_count_is_the_uncapped_rule_up_to_the_cap_and_constant_past_it(self, spec):
        cap = scattering.SUBSTEP_LAM_CAP / spec.feature_length
        lams = np.concatenate([[0.0, cap], np.geomspace(1e-3, 400.0, 80)])
        at_cap = _uncapped_substeps(self.GRID, cap, spec.sup_norm)
        for lam in lams:
            count = scattering._substeps(self.GRID, lam, spec)
            if lam <= cap:
                assert count == _uncapped_substeps(self.GRID, lam, spec.sup_norm)
            else:
                assert count == at_cap

    def test_free_line_takes_one_substep_at_every_lam(self):
        spec = PotentialSpec("zero")
        assert spec.feature_length == math.inf
        for lam in (0.0, 0.5, 40.0, 400.0, 3000.0):
            assert scattering._substeps(self.GRID, lam, spec) == 1
        (c,) = scattering_table(sample_potential(spec, self.GRID), [400.0])
        assert abs(c.T - 1.0) <= 1e-12 and abs(c.R) <= 1e-12

    @pytest.mark.parametrize("spec", [
        PotentialSpec("algebraic", q=0.5, s=3.0),
        PotentialSpec("gaussian", q=2.0, sigma=1.0),
        PotentialSpec("sech2_scaled", beta=0.5),
        PotentialSpec("gaussian", q=-4.0, sigma=0.1),
    ], ids=["algebraic", "gaussian", "sech2_half", "narrow_well"])
    def test_capped_table_is_as_accurate_as_the_uncapped(self, spec, monkeypatch):
        # |dT| + |dR| of each entry against a table at SUBSTEP_PHASE / 16:
        # at most twice the uncapped rule's, or 1e-12, plus the reference's
        # own spread (its distance to a SUBSTEP_PHASE / 32 table). The spread
        # is roundoff of the reference's many substeps, up to 5e-10 here;
        # without it the gaussian at lam = 44 and the narrow well at lam = 73
        # fail, at 2.4x and 2.0x the uncapped error, both inside the spread
        lams = np.geomspace(0.5, 120.0, 12)
        pot = sample_potential(spec, self.GRID)

        def table(phase=scattering.SUBSTEP_PHASE, rule=None):
            with monkeypatch.context() as m:
                m.setattr(scattering, "SUBSTEP_PHASE", phase)
                if rule is not None:
                    m.setattr(scattering, "_substeps", rule)
                coeffs = scattering_table(pot, lams)
            return np.array([[c.T for c in coeffs], [c.R for c in coeffs]])

        capped = table()
        uncapped = table(rule=lambda grid, lam, spec: _uncapped_substeps(grid, lam, spec.sup_norm))
        ref = table(scattering.SUBSTEP_PHASE / 16)
        spread = np.abs(table(scattering.SUBSTEP_PHASE / 32) - ref).sum(axis=0)
        err = np.abs(capped - ref).sum(axis=0)
        err_uncapped = np.abs(uncapped - ref).sum(axis=0)
        assert np.all(err <= np.maximum(2.0 * err_uncapped, 1e-12) + spread)
        assert err.max() <= 1.1 * err_uncapped.max()
        below = lams <= scattering.SUBSTEP_LAM_CAP / spec.feature_length
        assert np.array_equal(capped[:, below], uncapped[:, below])


# W(0) on each potential's admissibility domain as the cell-by-cell walk
# with one substep count per batch computed it, with the verdicts
# (admissible, detected, stable); algebraic q=5, s=2.5 needs the n=4096 domain
PINNED_W0 = [
    pytest.param(PotentialSpec("algebraic", q=0.5, s=3.0), 2048, 7.672706541522801,
                 (True, False, True), id="algebraic"),
    pytest.param(PotentialSpec("gaussian", q=2.0, sigma=1.0), 2048, 384.13857681360196,
                 (True, False, True), id="gaussian"),
    pytest.param(PotentialSpec("sech2_scaled", beta=0.5), 2048, 0.5933502691060777,
                 (True, False, True), id="sech2_half"),
    pytest.param(PotentialSpec("poschl_teller", ell=2.0), 2048, 1.98680347421092e-10,
                 (False, True, True), id="poschl_teller"),
    pytest.param(PotentialSpec("sech2_scaled", beta=1.0), 2048, 7.29953178397532e-11,
                 (False, True, True), id="sech2_one"),
    pytest.param(PotentialSpec("algebraic", q=5.0, s=2.5), 4096, 30854228.375089485,
                 (True, False, True), id="algebraic_wide"),
]


class TestTransferWalk:
    @pytest.mark.parametrize("spec", [
        PotentialSpec("algebraic", q=0.5, s=3.0),
        PotentialSpec("sech2_scaled", beta=0.5),
    ], ids=lambda spec: spec.kind)
    def test_entry_independent_of_batch(self, spec):
        # each lam takes its own substep count, so a table entry is bitwise
        # what that lam alone gives
        pot = sample_potential(spec, make_grid(-60.0, 60.0, 2048))
        lams = np.geomspace(0.5, 40.0, 48)
        table = scattering_table(pot, lams)
        assert table == [scattering_table(pot, [lam])[0] for lam in lams]

    @pytest.mark.parametrize("spec, n, w0, verdicts", PINNED_W0)
    def test_zero_frequency_wronskian_pinned(self, spec, n, w0, verdicts):
        report = check_admissibility(spec)
        assert report.grid.n == n
        probe = report.resonance
        assert abs(probe.w0_abs - w0) <= 1e-12 * max(1.0, w0)
        assert (report.admissible, probe.detected, probe.stable) == verdicts

    @pytest.mark.parametrize("spec, n, w0, verdicts", PINNED_W0)
    def test_wronskian_spread_at_roundoff(self, spec, n, w0, verdicts):
        # a badly conditioned blocked product would spread W over the
        # interior; at a resonance W(0) ~ 0, so there the spread is bounded
        # by the pin tolerance instead of relative to |W|
        pot = sample_potential(spec, check_admissibility(spec).grid)
        for lam in (0.0, 40.0):
            w = wronskian(jost(pot, lam, +1), jost(pot, lam, -1))
            if lam == 0.0 and verdicts[1]:
                assert w.std <= 1e-12
            else:
                assert w.std <= 1e-10 * abs(w.value)

    @pytest.mark.parametrize("cells", [1, 2, 3, 8, 17, 63, 1000])
    def test_blocked_walk_matches_cell_by_cell(self, cells):
        # reference: the recurrence y_{i+1} = C_i y_i one cell at a time.
        # Rotations keep every product at norm one, so roundoff is absolute.
        from solitonlab.scattering import _walk

        rng = np.random.default_rng(cells)
        theta = rng.uniform(-0.5, 0.5, (3, cells))
        cos, sin = np.cos(theta), np.sin(theta)
        y_f = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 3))
        y_g = 1j * y_f
        f, g = (a[:, 0] for a in _walk(np.stack([cos, sin, -sin, cos]), y_f[:, None], y_g[:, None]))
        ref_f, ref_g = [y_f], [y_g]
        for i in range(cells):
            a, b = ref_f[-1], ref_g[-1]
            ref_f.append(cos[:, i] * a + sin[:, i] * b)
            ref_g.append(-sin[:, i] * a + cos[:, i] * b)
        assert np.max(np.abs(f - np.stack(ref_f, axis=1))) <= 1e-12
        assert np.max(np.abs(g - np.stack(ref_g, axis=1))) <= 1e-12

    def test_overflow_raises_accuracy_error(self):
        # cosh of the walk under q = 1e5 overflows; Tier-1 turns any
        # RuntimeWarning into an error, so none may escape either
        pot = sample_potential(PotentialSpec("gaussian", q=1e5, sigma=1.0),
                               make_grid(-60.0, 60.0, 2048))
        with pytest.raises(AccuracyError, match="non-finite"):
            scattering_table(pot, [0.5, 2.0])
        with pytest.raises(AccuracyError, match="non-finite"):
            jost(pot, 0.5, +1)

    # a narrow barrier whose lam cap (about 970) lies past lam = 400
    NARROW = PotentialSpec("gaussian", q=1.0, sigma=0.005)

    def test_memory_does_not_grow_with_substeps(self):
        # lam = 400 takes m = 1172 substeps per cell on this grid; sampling V
        # for all of them up front took 38 MB (a 154 MB traced peak). Sampled
        # per substep, the peak measured 0.42 MB: (n-1)-sized arrays only.
        grid = make_grid(-60.0, 60.0, 2048)
        assert scattering._substeps(grid, 400.0, self.NARROW) == 1172
        pot = sample_potential(self.NARROW, grid)
        jost(pot, 1.0, +1)
        tracemalloc.start()
        try:
            jost(pot, 400.0, +1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_memory_does_not_grow_with_substeps_from_the_left(self):
        # the sign -1 twin of the test above: both signs walk the same cells
        pot = sample_potential(self.NARROW, make_grid(-60.0, 60.0, 2048))
        jost(pot, 1.0, -1)
        tracemalloc.start()
        try:
            jost(pot, 400.0, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


    def test_walk_beyond_the_substep_cap_is_rejected(self):
        # without the cap these would run for hours, or forever; the well's
        # edges are below EDGE_TOL on its admissibility domain
        pot = sample_potential(PotentialSpec("sech2_scaled", beta=1e300),
                               make_grid(-640.0, 640.0, 32768))
        with pytest.raises(ConfigError, match="substeps per cell"):
            jost(pot, 0.0, +1)
        free = sample_potential(PotentialSpec("zero"), make_grid(-40.0, 40.0, 2048))
        with pytest.raises(ConfigError, match="substeps per cell"):
            scattering_table(free, [1.0, 1e6])


class TestOnePass:
    """Both Jost directions come from one set of left-to-right cell matrices:
    sign +1 walks their adjugates (their inverses, as det C = 1) right to left."""

    @pytest.mark.parametrize("spec, n, w0, verdicts", PINNED_W0)
    def test_reversed_walk_matches_reversed_cells(self, spec, n, w0, verdicts):
        # reference: cells built from the right edge with a negative
        # substep, walked from there
        from solitonlab.scattering import _cell_matrices, _propagate_batch, _substeps, _walk

        grid = check_admissibility(spec).grid
        x, dx = grid.x, grid.dx
        for lam in (0.0, 1.0, 40.0):
            m = _substeps(grid, lam, spec)
            lam2 = np.array([lam * lam])
            c00, c01, c10, c11 = _cell_matrices(spec, x[:-1], dx / m, m, lam2)
            assert np.max(np.abs(c00 * c11 - c01 * c10 - 1.0)) <= 1e-12
            y_f = np.exp(1j * lam * x[-1:])[:, None]
            ref_f, ref_g = _walk(_cell_matrices(spec, x[n - 1 : 0 : -1], -dx / m, m, lam2),
                                 y_f, 1j * lam * y_f)
            (f, g), _ = _propagate_batch(spec, grid, np.array([lam]))
            for got, ref in ((f, ref_f[:, 0, ::-1]), (g, ref_g[:, 0, ::-1])):
                assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("sign", [1, -1])
    def test_jost_is_a_row_of_the_two_sign_batch(self, sign):
        spec = PotentialSpec("gaussian", q=2.0, sigma=1.0)
        grid = make_grid(-30.0, 30.0, 1024)
        lams = np.array([0.0, 0.7, 3.0, 25.0])
        both = dict(zip((1, -1), scattering._propagate_batch(spec, grid, lams)))
        f, fp = both[sign]
        pot = sample_potential(spec, grid)
        for i, lam in enumerate(lams):
            sol = jost(pot, lam, sign)
            assert np.array_equal(sol.f, f[i]) and np.array_equal(sol.fprime, fp[i])

    @pytest.mark.parametrize("spec", [
        PotentialSpec("gaussian", q=2.0, sigma=1.0),
        PotentialSpec("sech2_scaled", beta=1.0),
    ], ids=lambda spec: spec.kind)
    def test_resonance_probe_is_the_jost_wronskian(self, spec):
        grid = make_grid(-30.0, 30.0, 1024)
        probe = detect_resonance(spec, grid)
        doubled = make_grid(grid.x_min - grid.length / 2.0, grid.x_max + grid.length / 2.0, 2 * grid.n)
        for g, w0 in ((grid, probe.w0_abs), (doubled, probe.w0_abs_doubled)):
            pot = sample_potential(spec, g)
            assert w0 == abs(wronskian(jost(pot, 0.0, +1), jost(pot, 0.0, -1)).value)

    def test_resonance_probe_enforces_edge_tolerance(self):
        with pytest.raises(ConfigError, match="edge tolerance"):
            detect_resonance(PotentialSpec("algebraic", q=1.0, s=3.0), make_grid(-5.0, 5.0, 64))

    # T and R from a walk with the sign +1 cells built from the right edge;
    # the one-pass walk is within 6e-14 of them, so 1e-12 absolute catches
    # any change to the walk beyond roundoff. lam = 40 lies past both
    # potentials' lam cap (6.9 and 6.2), so it takes the cap's substep count:
    # sech2_half's entry is pinned at that count (T moved by 1.0e-11, and its
    # distance to a SUBSTEP_PHASE / 16 table went from 8.2e-12 to 2.5e-12);
    # algebraic's moved by 3.3e-13 and keeps its pin
    PINNED_TABLE_TOL = 1e-12

    @pytest.mark.parametrize("spec, pinned", [
        pytest.param(PotentialSpec("algebraic", q=0.5, s=3.0), [
            (0.5, -0.1065051350463594 - 0.3054743437366793j,
             -0.8934764460230482 + 0.31151552437948193j),
            (5.0, 0.979831195983778 - 0.19982698626340803j,
             -1.0844477864718444e-05 - 5.310608195310828e-05j),
            (40.0, 0.9996875455975874 - 0.024996223255079424j,
             4.096572665349476e-10 - 4.2289716468012946e-10j),
        ], id="algebraic"),
        pytest.param(PotentialSpec("sech2_scaled", beta=0.5), [
            (0.5, 0.2865526341567362 + 0.8814612934074477j,
             -0.3569942627674944 + 0.11605460970318512j),
            (5.0, 0.9803285238894875 + 0.19737270644071336j,
             -5.544550279394369e-08 + 2.7539173038813163e-07j),
            (40.0, 0.9996875813609996 + 0.02499479288715109j,
             2.248358666682645e-15 - 1.2965399644570418e-15j),
        ], id="sech2_half"),
    ])
    def test_table_pinned(self, spec, pinned):
        pot = sample_potential(spec, make_grid(-60.0, 60.0, 2048))
        table = scattering_table(pot, [lam for lam, _, _ in pinned])
        for c, (lam, t, r) in zip(table, pinned):
            assert c.lam == lam
            assert abs(c.T - t) <= self.PINNED_TABLE_TOL
            assert abs(c.R - r) <= self.PINNED_TABLE_TOL


def _all_cells_table(spec, grid, lams):
    # every cell built by _cell_matrices; sign -1 walks them as built, sign +1
    # walks S adj(C) S = [[c11, c01], [c10, c00]] of each in reverse from S f_+
    cells = np.empty((4, lams.size, grid.n - 1))
    for i, lam in enumerate(lams):
        m = scattering._substeps(grid, lam, spec)
        built = scattering._cell_matrices(spec, grid.x[:-1], grid.dx / m, m, np.array([lam * lam]))
        for dst, src in zip(cells, built):
            dst[i] = src[0]
    c00, c01, c10, c11 = cells
    minus = np.exp(-1j * lams * grid.x[0])
    plus = np.exp(1j * lams * grid.x[-1])
    fm, gm = scattering._walk(cells, minus[:, None], -1j * lams[:, None] * minus[:, None])
    fp, gp = scattering._walk([c[:, ::-1] for c in (c11, c01, c10, c00)],
                              plus[:, None], -1j * lams[:, None] * plus[:, None])
    return scattering._coeffs_from_batch(grid, lams, fp[:, 0, ::-1], -gp[:, 0, ::-1],
                                         fm[:, 0], gm[:, 0])


class TestMirrorCells:
    """On a grid symmetric about the center of V, _propagate_batch builds
    cells 0 .. n/2-1 and takes cell n-1-i as the mirror image of cell i:
    S adj(C) S = [[c11, c01], [c10, c00]] with S = diag(1, -1). One walk
    over the cells gives both Jost directions; any other grid is rejected."""

    @pytest.mark.parametrize("spec, grid", [
        *(pytest.param(param.values[0], None, id=param.id) for param in PINNED_W0),
        pytest.param(PotentialSpec("gaussian", q=-8.0, sigma=0.05), make_grid(-60.0, 60.0, 2048),
                     id="narrow_well"),
        pytest.param(PotentialSpec("sech2_scaled", beta=0.5, center=0.3),
                     make_grid(-59.7, 60.3, 2048), id="sech2_off_zero"),
    ])
    def test_mirrored_cells_match_the_cells_built_directly(self, spec, grid):
        grid = grid or check_admissibility(spec).grid
        n = grid.n
        assert scattering._require_centred(spec, grid) is None
        built, mirror = slice(n // 2, n - 1), slice(n // 2 - 1, 0, -1)
        for lam in (0.0, 1.0, 40.0):
            m = scattering._substeps(grid, lam, spec)
            c00, c01, c10, c11 = (c[0] for c in scattering._cell_matrices(
                spec, grid.x[:-1], grid.dx / m, m, np.array([lam * lam])))
            scale = max(np.max(np.abs(c)) for c in (c00, c01, c10, c11))
            for got, mirrored in ((c00, c11), (c01, c01), (c10, c10), (c11, c00)):
                assert np.max(np.abs(got[built] - mirrored[mirror])) <= 1e-13 * scale

    def test_every_grid_the_program_builds_is_centred(self):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        @settings(max_examples=400, deadline=None, derandomize=True)
        @given(center=st.floats(-1e9, 1e9), half=st.floats(1e-3, 1e4),
               log_n=st.integers(4, 14))
        def check(center, half, log_n):
            spec = PotentialSpec("sech2_scaled", beta=0.5, center=center)
            grids = []
            try:
                # cmd_spectral's table, check_admissibility's domain and its
                # doublings, and detect_resonance's doubled domain of each
                for k in range(4):
                    grid = make_grid(center - half * 2**k, center + half * 2**k, 2**(log_n + k))
                    grids += [grid, make_grid(grid.x_min - grid.length / 2.0,
                                              grid.x_max + grid.length / 2.0, 2 * grid.n)]
            except ConfigError:  # too far from 0 to resolve its spacing
                hypothesis.assume(grids)
            for grid in grids:
                scattering._require_centred(spec, grid)

        check()

    @pytest.mark.parametrize("center", [0.0, 0.3, -489.4119198253881, 1e6])
    def test_off_centre_grid_is_rejected(self, center):
        spec = PotentialSpec("sech2_scaled", beta=0.5, center=center)
        grid = make_grid(center - 60.0, center + 60.0, 2048)
        for off in (grid.shifted(grid.dx), make_grid(center - 60.0, center + 50.0, 2048)):
            pot = sample_potential(spec, off)
            with pytest.raises(ConfigError, match="not symmetric"):
                scattering_table(pot, [1.0, 2.0])
            with pytest.raises(ConfigError, match="not symmetric"):
                jost(pot, 1.0, -1)
            with pytest.raises(ConfigError, match="not symmetric"):
                detect_resonance(spec, off)

    @pytest.mark.parametrize("center", ["0.3", "1e6"])
    def test_spectral_off_zero_center_runs(self, tmp_path, center):
        from solitonlab.cli import main

        assert main(["spectral", "--kind", "sech2_scaled", "--beta", "0.5", "--center", center,
                     "--lambda-points", "4", "--out", str(tmp_path / "spec")]) == 0

    @pytest.mark.parametrize("spec", [
        PotentialSpec("algebraic", q=0.5, s=3.0),
        PotentialSpec("gaussian", q=2.0, sigma=1.0),
        PotentialSpec("sech2_scaled", beta=0.5),
        PotentialSpec("poschl_teller", ell=2.0),
        PotentialSpec("sech2_scaled", beta=0.5, center=0.3),
    ], ids=["algebraic", "gaussian", "sech2_half", "poschl_teller", "sech2_off_zero"])
    def test_centred_table_matches_the_all_cells_table(self, spec):
        grid = make_grid(spec.center - 60.0, spec.center + 60.0, 2048)
        lams = np.geomspace(0.5, 40.0, 48)
        table = scattering_table(sample_potential(spec, grid), lams)
        reference = _all_cells_table(spec, grid, lams)
        for c, ref in zip(table, reference):
            assert abs(c.T - ref.T) <= 1e-13 and abs(c.R - ref.R) <= 1e-13
            assert abs(c.unitarity_defect - ref.unitarity_defect) <= 1e-13

    @pytest.mark.parametrize("cells", [1, 2, 63, 2048])
    def test_two_starts_are_two_walks_bitwise(self, cells):
        x, dx = np.linspace(-30.0, 30.0, cells, endpoint=False, retstep=True)
        c = scattering._cell_matrices(PotentialSpec("gaussian", q=2.0, sigma=1.0), x, dx / 4, 4,
                                      np.array([0.0, 1.0, 25.0]))
        rng = np.random.default_rng(cells)
        y_f, y_g = rng.standard_normal((2, 3, 2)) + 1j * rng.standard_normal((2, 3, 2))
        f, g = scattering._walk(c, y_f, y_g)
        for s in range(2):
            one_f, one_g = scattering._walk(c, y_f[:, s : s + 1], y_g[:, s : s + 1])
            assert np.array_equal(f[:, s], one_f[:, 0]) and np.array_equal(g[:, s], one_g[:, 0])


class TestBoundStates:
    def test_free_line_empty(self, free):
        assert bound_states(free) == []

    def test_energies_only_are_the_states_energies(self):
        for spec in (PotentialSpec("sech2_scaled", beta=0.5), PotentialSpec("poschl_teller", ell=3.0),
                     PotentialSpec("gaussian", q=-2.0, sigma=1.0)):
            for n in (512, 2048):
                pot = sample_potential(spec, make_grid(-40.0, 40.0, n))
                energies = bound_states(pot, energies_only=True)
                assert energies == [s.energy for s in bound_states(pot)]
        assert bound_states(sample_potential(PotentialSpec("zero"), make_grid(-40.0, 40.0, 512)),
                            energies_only=True) == []

    def test_depth_one_well(self):
        grid = make_grid(-28.0, 28.0, 16384)
        pot = sample_potential(PotentialSpec("sech2_scaled", beta=1.0), grid)
        states = bound_states(pot)
        assert len(states) == 1
        assert abs(states[0].energy + 0.5) <= 1e-6
        target = 1.0 / np.cosh(grid.x) / math.sqrt(2.0)
        err = math.sqrt(grid.dx * np.sum(np.abs(states[0].field.values - target) ** 2))
        assert err <= 1e-5
        assert abs(l2_norm(states[0].field) - 1.0) <= 1e-10

    def test_half_depth_well(self):
        grid = make_grid(-28.0, 28.0, 16384)
        pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), grid)
        states = bound_states(pot)
        assert len(states) == 1
        assert abs(states[0].energy + KAPPA**2 / 2.0) <= 1e-6

    def test_two_state_well_counted(self):
        # ell = 2 has two negative levels (-2 and -1/2)
        grid = make_grid(-28.0, 28.0, 8192)
        pot = sample_potential(PotentialSpec("poschl_teller", ell=2.0), grid)
        states = bound_states(pot)
        assert len(states) == 2
        assert states[0].energy == pytest.approx(-2.0, abs=1e-4)
        assert states[1].energy == pytest.approx(-0.5, abs=1e-4)

    def test_solved_at_bound_state_dx_and_sampled_at_the_nodes(self):
        # dx = 0.156 on the caller's grid, so the solve takes r = 4
        spec = PotentialSpec("sech2_scaled", beta=0.5)
        coarse = bound_states(sample_potential(spec, make_grid(-40.0, 40.0, 512)))
        direct = bound_states(sample_potential(spec, make_grid(-40.0, 40.0, 2048)))
        assert len(coarse) == len(direct) == 1
        assert coarse[0].energy == direct[0].energy
        assert coarse[0].field.grid == make_grid(-40.0, 40.0, 512)
        assert np.array_equal(coarse[0].field.values, direct[0].field.values[::4])

    def test_admissibility_grid_is_solved_as_it_is(self, monkeypatch):
        # a center whose domain edges round dx just above BOUND_STATE_DX
        spec = PotentialSpec("sech2_scaled", beta=0.5, center=-489.4119198253881)
        grid = check_admissibility(spec).grid
        assert grid.dx > scattering.BOUND_STATE_DX
        sizes = []
        real = scattering._tridiag_eig

        def recorded(v, dx):
            sizes.append(v.size)
            return real(v, dx)

        monkeypatch.setattr(scattering, "_tridiag_eig", recorded)
        assert len(bound_states(sample_potential(spec, grid))) == 1
        assert sizes == [grid.n]

    def test_nonnegative_potential_skips_the_solve(self, monkeypatch):
        def refuse(v, dx):
            raise AssertionError("solver called for V >= 0")

        monkeypatch.setattr(scattering, "_tridiag_eig", refuse)
        grid = make_grid(-40.0, 40.0, 512)
        for spec in (PotentialSpec("zero"), PotentialSpec("algebraic", q=0.5, s=3.0),
                     PotentialSpec("gaussian", q=2.0, sigma=1.0)):
            assert bound_states(sample_potential(spec, grid)) == []


@pytest.fixture(scope="module")
def state():
    grid = make_grid(-28.0, 28.0, 2048)
    pot = sample_potential(PotentialSpec("sech2_scaled", beta=0.5), grid)
    return bound_states(pot)[0]


class TestProjection:
    def test_projects_itself(self, state):
        a, cont = project(state.field, state)
        assert abs(a - 1.0) <= 1e-10
        assert l2_norm(cont) <= 1e-10

    def test_orthogonal_field(self, state):
        grid = state.field.grid
        odd = Field(grid, np.tanh(grid.x) * state.field.values)
        a, _ = project(odd, state)
        assert abs(a) <= 1e-10

    def test_pythagoras_and_idempotence(self, state):
        grid = state.field.grid
        f = Field(grid, np.exp(1j * grid.x) / np.cosh(0.5 * (grid.x - 1.0)))
        a, cont = project(f, state)
        assert abs(inner_product(cont, state.field)) <= 1e-10
        assert abs(l2_norm(f) ** 2 - abs(a) ** 2 - l2_norm(cont) ** 2) <= 1e-9
        a2, cont2 = project(cont, state)
        assert abs(a2) <= 1e-12
        assert np.max(np.abs(cont2.values - cont.values)) <= 1e-12

    def test_no_bound_state(self, state):
        grid = state.field.grid
        f = Field(grid, np.ones(grid.n))
        a, cont = project(f, None)
        assert a == 0.0
        assert cont is f
