"""Potential catalog: sampling, decay fits and admissibility verdicts."""

import math
import pickle

import numpy as np
import pytest

from solitonlab import scattering
from solitonlab.errors import ConfigError
from solitonlab.grid import make_grid
from solitonlab.potentials import (
    EDGE_TOL,
    KINDS,
    PotentialSpec,
    check_admissibility,
    decay_fit,
    edge_magnitude,
    sample_potential,
)

KAPPA = (math.sqrt(5.0) - 1.0) / 2.0  # depth 1/2 well: E0 = -kappa^2/2


class TestSampling:
    def test_zero(self):
        g = make_grid(-10.0, 10.0, 64)
        pot = sample_potential(PotentialSpec("zero"), g)
        assert np.all(pot.values == 0.0)

    def test_algebraic_values(self):
        spec = PotentialSpec("algebraic", q=1.0, s=3.0)
        assert spec(np.array([0.0]))[0] == pytest.approx(1.0)
        assert spec(np.array([1.0]))[0] == pytest.approx(2.0 ** -1.5)

    def test_sech2_at_center(self):
        spec = PotentialSpec("sech2_scaled", beta=1.0)
        assert spec(np.array([0.0]))[0] == pytest.approx(-1.0)

    def test_poschl_teller_matches_sech2(self):
        # poschl_teller is sech2_scaled at beta = ell(ell+1)/2, sample for sample
        g = make_grid(-20.0, 20.0, 256)
        for ell in (1.0, 2.0):
            a = PotentialSpec("poschl_teller", ell=ell)
            b = PotentialSpec("sech2_scaled", beta=ell * (ell + 1.0) / 2.0)
            assert np.array_equal(sample_potential(a, g).values, sample_potential(b, g).values)
            assert a.tail_integral(5.0) == b.tail_integral(5.0)

    def test_center_offset(self):
        spec = PotentialSpec("gaussian", q=2.0, sigma=1.0, center=3.0)
        assert spec(np.array([3.0]))[0] == pytest.approx(2.0)

    def test_even_sampling_exactly_mirrored(self):
        g = make_grid(-12.0, 12.0, 256)
        for spec in (
            PotentialSpec("algebraic", q=-0.7, s=2.5),
            PotentialSpec("gaussian", q=1.3, sigma=0.8),
            PotentialSpec("sech2_scaled", beta=0.4),
        ):
            v = sample_potential(spec, g).values
            j = np.arange(1, g.n)
            assert np.array_equal(v[j], v[g.n - j])

    def test_samples_are_real(self):
        g = make_grid(-10.0, 10.0, 64)
        for kind in ("zero", "algebraic", "gaussian", "sech2_scaled", "poschl_teller"):
            assert sample_potential(PotentialSpec(kind), g).values.dtype == np.float64

    @pytest.mark.parametrize("spec", [
        PotentialSpec("zero"),
        PotentialSpec("algebraic", q=0.5, s=3.0),
        PotentialSpec("algebraic", q=-5.0, s=2.5, center=2.0),
        PotentialSpec("algebraic", q=1.0, s=0.3),
        PotentialSpec("gaussian", q=2.0, sigma=1.0),
        PotentialSpec("gaussian", q=-1.0, sigma=0.05),
        PotentialSpec("sech2_scaled", beta=0.5),
        PotentialSpec("poschl_teller", ell=2.0),
    ])
    def test_slope_norm_is_max_derivative(self, spec):
        # the closed form against the largest central difference on a fine grid
        x = np.linspace(spec.center - 10.0, spec.center + 10.0, 400_001)
        measured = float(np.max(np.abs(np.gradient(spec(x), x))))
        assert spec.slope_norm == pytest.approx(measured, rel=1e-6, abs=1e-15)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            PotentialSpec("delta")

    def test_from_dict_validates(self):
        spec = PotentialSpec.from_dict({"kind": "algebraic", "q": 0.5, "s": 3})
        assert spec.q == 0.5 and spec.s == 3.0
        with pytest.raises(ConfigError):
            PotentialSpec.from_dict({"kind": "gaussian", "width": 1.0})
        with pytest.raises(ConfigError):
            PotentialSpec.from_dict({"q": 1.0})

    EVEN_PARAMS = {"zero": {}, "algebraic": {"q": 0.5, "s": 3.0}, "gaussian": {"q": 2.0, "sigma": 1.0},
                   "sech2_scaled": {"beta": 0.5}, "poschl_teller": {"ell": 2.0}}

    @pytest.mark.parametrize("center", [0.0, 0.3])
    @pytest.mark.parametrize("kind", KINDS)
    def test_every_kind_is_even_about_its_center(self, kind, center):
        # scattering mirrors the cells of a grid centred on V, so V(c + y)
        # must be V(c - y): exactly at c = 0; at c = 0.3 the rounding of
        # c +- y moves V by at most 2.7 ulps of sup|V| (measured)
        spec = PotentialSpec(kind, center=center, **self.EVEN_PARAMS[kind])
        y = np.linspace(0.0, 50.0, 100_001)
        diff = np.max(np.abs(spec(center + y) - spec(center - y)))
        assert diff <= (0.0 if center == 0.0 else 4.0 * np.finfo(float).eps * spec.sup_norm)

    def test_norms_are_cached_and_a_pickled_spec_compares_equal(self):
        # study workers receive their spec pickled, with its cached norms
        spec = PotentialSpec("gaussian", q=2.0, sigma=0.5)
        norms = (spec.sup_norm, spec.slope_norm, spec.feature_length)
        assert {"sup_norm", "slope_norm", "feature_length"} <= vars(spec).keys()
        clone = pickle.loads(pickle.dumps(spec))
        fresh = PotentialSpec("gaussian", q=2.0, sigma=0.5)
        assert clone == spec == fresh and hash(clone) == hash(spec) == hash(fresh)
        assert (clone.sup_norm, clone.slope_norm, clone.feature_length) == norms
        assert repr(clone) == repr(fresh)


class TestDecayFit:
    def test_algebraic_exact(self):
        g = make_grid(-80.0, 80.0, 2048)
        est = decay_fit(PotentialSpec("algebraic", q=1.0, s=3.0), g)
        assert 2.9 <= est <= 3.1

    def test_algebraic_negative_amplitude(self):
        g = make_grid(-80.0, 80.0, 2048)
        est = decay_fit(PotentialSpec("algebraic", q=-0.5, s=2.5), g)
        assert 2.4 <= est <= 2.6

    def test_gaussian_super_algebraic(self):
        g = make_grid(-80.0, 80.0, 2048)
        assert math.isinf(decay_fit(PotentialSpec("gaussian", q=1.0, sigma=1.0), g))

    def test_sech2_super_algebraic(self):
        g = make_grid(-80.0, 80.0, 2048)
        assert math.isinf(decay_fit(PotentialSpec("sech2_scaled", beta=0.5), g))

    def test_zero_window_rejected(self):
        g = make_grid(-80.0, 80.0, 2048)
        with pytest.raises(ConfigError):
            decay_fit(PotentialSpec("zero"), g)

    @pytest.mark.parametrize("sigma", [0.2, 0.05])
    def test_underflowed_narrow_gaussian_super_algebraic(self, sigma):
        # V underflows to 0 on the window L/8..3L/8: faster than any power
        g = make_grid(-40.0, 40.0, 2048)
        spec = PotentialSpec("gaussian", q=1.0, sigma=sigma)
        y = np.abs(g.x)
        window = (y >= g.length / 8.0) & (y <= 3.0 * g.length / 8.0)
        assert np.count_nonzero(spec(g.x)[window]) < 8
        assert math.isinf(decay_fit(spec, g))


class TestAdmissibility:
    def test_zero_potential_resonant(self):
        rep = check_admissibility(PotentialSpec("zero"))
        assert rep.resonance_detected
        assert not rep.admissible
        assert rep.bound_state_count == 0

    def test_depth_one_well_resonant(self):
        rep = check_admissibility(PotentialSpec("sech2_scaled", beta=1.0))
        assert rep.bound_state_count == 1
        assert rep.bound_state_energies[0] == pytest.approx(-0.5, abs=1e-3)
        assert rep.resonance_detected
        assert not rep.admissible

    def test_half_depth_well_admissible(self):
        rep = check_admissibility(PotentialSpec("sech2_scaled", beta=0.5))
        assert rep.bound_state_count == 1
        assert rep.bound_state_energies[0] == pytest.approx(-KAPPA**2 / 2.0, abs=1e-3)
        assert not rep.resonance_detected
        assert rep.admissible
        assert rep.conclusive

    def test_repulsive_algebraic_admissible(self):
        rep = check_admissibility(PotentialSpec("algebraic", q=0.5, s=3.0))
        assert rep.admissible
        assert rep.bound_state_count == 0
        assert 2.9 <= rep.decay_parameter_estimate <= 3.1

    def test_slow_decay_not_admissible(self):
        # s < 2 fails the decay requirement even without bound states
        rep = check_admissibility(PotentialSpec("algebraic", q=0.02, s=1.5))
        assert not rep.admissible
        assert rep.decay_parameter_estimate < 2.0

    def test_edge_tolerance_inconclusive(self):
        # |V| still exceeds the edge tolerance on the widest domain
        spec = PotentialSpec("algebraic", q=2.0, s=1.2)
        rep = check_admissibility(spec)
        assert rep.grid.n == 1 << 16
        assert not rep.conclusive
        assert not rep.admissible
        # the edge check stops the report before the bound-state and resonance probes
        assert rep.bound_state_energies == ()
        assert rep.resonance is None
        edge_v = edge_magnitude(spec, rep.grid)
        assert rep.notes == (f"inconclusive: |V|={edge_v:.3g} at domain edge exceeds {EDGE_TOL:g}",)

    def test_resonance_flag_monotone_in_threshold(self, monkeypatch):
        # a looser resonance threshold can only add resonance verdicts:
        # the admissible verdict never flips inadmissible -> admissible
        spec = PotentialSpec("sech2_scaled", beta=0.5)
        monkeypatch.setattr(scattering, "RESONANCE_EPS", 1e-2)
        loose = check_admissibility(spec)
        monkeypatch.setattr(scattering, "RESONANCE_EPS", 1e-6)
        tight = check_admissibility(spec)
        assert loose.resonance_detected or not tight.resonance_detected
        assert (not tight.admissible) or loose.admissible or loose.resonance_detected

    def test_json_round_trip(self):
        rep = check_admissibility(PotentialSpec("gaussian", q=1.0, sigma=1.0))
        d = rep.to_dict()
        assert d["decay_super_algebraic"] is True
        assert d["decay_parameter_estimate"] is None
        assert isinstance(d["admissible"], bool)

    def test_narrow_gaussian_labeled_as_delta_stand_in(self):
        spec = PotentialSpec("gaussian", q=1.0, sigma=0.04)
        assert spec.is_delta_approximation
        rep = check_admissibility(spec)
        assert any("delta" in note for note in rep.notes)


class TestTailIntegral:
    def test_zero(self):
        assert PotentialSpec("zero").tail_integral(10.0) == 0.0

    def test_algebraic_tail_matches_quadrature(self):
        spec = PotentialSpec("algebraic", q=1.0, s=3.0)
        # 2 * integral_X^inf (1+x^2)^{-3/2} dx = 2 (1 - X/sqrt(1+X^2)) ~ X^-2
        x = np.linspace(20.0, 2000.0, 400000)
        quad = 2.0 * np.trapezoid(spec(x), x)
        est = spec.tail_integral(20.0)
        assert quad <= est <= 2.0 * quad
