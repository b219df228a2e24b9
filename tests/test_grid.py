"""Grid, norms, transforms and field serialization."""

import math

import numpy as np
import pytest

from solitonlab.errors import ConfigError, NumericalBreakdownError
from solitonlab.grid import (
    Field,
    edge_mass_fraction,
    from_fourier,
    inner_product,
    l2_norm,
    load_field,
    lp_norm,
    make_grid,
    save_field,
    to_fourier,
)

SQRT2 = math.sqrt(2.0)  # sqrt of integral sech^2 = 2


def sech(x):
    return 1.0 / np.cosh(x)


def deterministic_field(grid):
    # reproducible broadband field: localized bumps times oscillations
    x = grid.x
    vals = (
        sech(x - 1.0) * np.exp(1j * (3.0 * x + 0.2))
        + 0.4 * sech(0.7 * (x + 2.0)) * np.exp(-1j * 5.0 * x)
        + 0.05j * sech(x) ** 2
    )
    return Field(grid, vals)


class TestMakeGrid:
    def test_dx_and_kmax(self):
        g = make_grid(-1.0, 1.0, 16)
        assert g.dx == 0.125
        assert g.k_max == pytest.approx(8 * math.pi)

    def test_integer_wavenumbers_on_2pi_domain(self):
        g = make_grid(0.0, 2 * math.pi, 64)
        ints = np.fft.fftfreq(64) * 64
        assert np.allclose(g.k, ints, atol=1e-12)
        assert g.k.size == 64
        assert np.max(np.abs(g.k)) == pytest.approx(math.pi / g.dx)

    def test_positions(self):
        g = make_grid(-2.0, 6.0, 32)
        assert g.x[0] == -2.0
        assert np.allclose(np.diff(g.x), g.dx)
        assert g.x[-1] == pytest.approx(6.0 - g.dx)

    @pytest.mark.parametrize("n", [15, 17, 100, 8, 0])
    def test_rejects_bad_n(self, n):
        with pytest.raises(ConfigError):
            make_grid(-1.0, 1.0, n)

    def test_rejects_empty_domain(self):
        with pytest.raises(ConfigError):
            make_grid(1.0, 1.0, 16)
        with pytest.raises(ConfigError):
            make_grid(2.0, -2.0, 16)

    def test_rejects_a_domain_too_far_out_for_its_spacing(self):
        # floats near 1e15 are 0.125 apart, and near 1e9 1.2e-7 apart
        make_grid(1e8 - 40.0, 1e8 + 40.0, 2048)
        for center in (1e9, 1e15):
            with pytest.raises(ConfigError, match="cannot be resolved"):
                make_grid(center - 40.0, center + 40.0, 2048)


class TestField:
    def test_rejects_wrong_length(self):
        g = make_grid(-1.0, 1.0, 16)
        with pytest.raises(ConfigError):
            Field(g, np.zeros(8))

    def test_rejects_nonfinite(self):
        g = make_grid(-1.0, 1.0, 16)
        vals = np.zeros(16, dtype=complex)
        vals[3] = np.nan
        with pytest.raises(NumericalBreakdownError):
            Field(g, vals)

    def test_values_immutable(self):
        g = make_grid(-1.0, 1.0, 16)
        f = Field(g, np.ones(16))
        with pytest.raises(ValueError):
            f.values[0] = 2.0


class TestNorms:
    def test_l2_zero(self):
        g = make_grid(-10.0, 10.0, 64)
        assert l2_norm(Field(g, np.zeros(64))) == 0.0

    def test_l2_sech(self):
        g = make_grid(-30.0, 30.0, 2048)
        f = Field(g, sech(g.x - 2.0))
        assert abs(l2_norm(f) - SQRT2) <= 1e-8

    def test_l2_constant(self):
        g = make_grid(-3.0, 5.0, 256)
        f = Field(g, np.ones(256))
        assert l2_norm(f) == pytest.approx(math.sqrt(8.0), abs=1e-12)

    def test_lp_sech_oracle(self):
        # integral sech^4 = 4/3 (quadrature oracle), peak = 1
        g = make_grid(-30.0, 30.0, 2048)
        f = Field(g, sech(g.x))
        assert abs(lp_norm(f, 4) - (4.0 / 3.0) ** 0.25) <= 1e-8
        assert lp_norm(f, np.inf) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1, 2, 4, 6, np.inf])
    def test_lp_zero_and_homogeneity(self, p):
        g = make_grid(-10.0, 10.0, 128)
        assert lp_norm(Field(g, np.zeros(128)), p) == 0.0
        f = deterministic_field(g)
        scaled = Field(g, (2.0 - 1.0j) * f.values)
        assert lp_norm(scaled, p) == pytest.approx(abs(2.0 - 1.0j) * lp_norm(f, p), rel=1e-13)

    def test_lp_rejects_unsupported(self):
        g = make_grid(-1.0, 1.0, 16)
        with pytest.raises(ConfigError):
            lp_norm(Field(g, np.ones(16)), 3)


class TestInnerProduct:
    def test_sech_pair(self):
        g = make_grid(-30.0, 30.0, 2048)
        f = Field(g, sech(g.x))
        assert abs(inner_product(f, f) - 2.0) <= 1e-8

    def test_odd_pairing_vanishes(self):
        g = make_grid(-16.0, 16.0, 1024)
        f = Field(g, sech(g.x))
        h = Field(g, np.tanh(g.x) * sech(g.x))
        assert abs(inner_product(f, h)) <= 1e-10

    def test_zero_field(self):
        g = make_grid(-8.0, 8.0, 128)
        f = deterministic_field(g)
        assert inner_product(Field(g, np.zeros(128)), f) == 0.0

    def test_conjugate_symmetry_and_norm_link(self):
        g = make_grid(-8.0, 8.0, 256)
        f = deterministic_field(g)
        h = Field(g, np.conj(f.values) * np.exp(1j * g.x))
        assert inner_product(f, h) == pytest.approx(np.conj(inner_product(h, f)), rel=1e-13)
        assert inner_product(f, f).real == pytest.approx(l2_norm(f) ** 2, rel=1e-13)
        assert abs(inner_product(f, f).imag) <= 1e-14 * l2_norm(f) ** 2

    def test_grid_mismatch(self):
        f = deterministic_field(make_grid(-8.0, 8.0, 128))
        h = deterministic_field(make_grid(-8.0, 8.0, 256))
        with pytest.raises(ConfigError):
            inner_product(f, h)


class TestFourier:
    def test_plane_wave_single_coefficient(self):
        g = make_grid(-4.0, 4.0, 64)
        m = 5
        km = 2 * math.pi * m / g.length
        fhat = to_fourier(Field(g, np.exp(1j * km * g.x)))
        mags = np.abs(fhat.values)
        assert np.argmax(mags) == m
        others = np.delete(mags, m)
        assert np.max(others) <= 1e-12 * mags[m]

    def test_roundtrip(self):
        g = make_grid(-10.0, 10.0, 512)
        f = deterministic_field(g)
        back = from_fourier(to_fourier(f))
        assert np.max(np.abs(back.values - f.values)) <= 1e-12 * np.max(np.abs(f.values))

    def test_parseval(self):
        g = make_grid(-30.0, 30.0, 1024)
        for f in (Field(g, sech(g.x)), deterministic_field(g)):
            fhat = to_fourier(f)
            lhs = l2_norm(f) ** 2
            rhs = g.dx * float(np.sum(np.abs(fhat.values) ** 2))
            assert abs(lhs - rhs) <= 1e-10 * lhs


class TestEdgeMass:
    def test_centered_bump_negligible(self):
        g = make_grid(-40.0, 40.0, 1024)
        assert edge_mass_fraction(Field(g, sech(g.x))) <= 1e-20

    def test_edge_bump_counts(self):
        g = make_grid(-40.0, 40.0, 1024)
        f = Field(g, sech(g.x - 39.0))
        assert edge_mass_fraction(f) >= 0.4

    def test_zero_field(self):
        g = make_grid(-40.0, 40.0, 64)
        assert edge_mass_fraction(Field(g, np.zeros(64))) == 0.0

    def test_stack_matches_each_row(self):
        # the observer passes a chunk of densities at once: each row must
        # get the fraction of its own 1-D density, 0 for a zero row
        g = make_grid(-40.0, 40.0, 1024)
        fields = [sech(g.x), sech(g.x - 39.0), np.zeros(g.n), deterministic_field(g).values,
                  sech(g.x + 38.5) + 1e-3]
        dens = np.stack([np.abs(f) ** 2 for f in fields])
        stacked = edge_mass_fraction(dens)
        assert stacked.shape == (len(fields),)
        for row, frac in zip(dens, stacked):
            assert frac == edge_mass_fraction(row)
        assert stacked[2] == 0.0 and stacked[1] >= 0.4
        assert np.array_equal(edge_mass_fraction(dens.reshape(5, 1, g.n)), stacked[:, None])


class TestSerialization:
    def test_binary_roundtrip(self, tmp_path):
        g = make_grid(-7.0, 9.0, 256)
        f = deterministic_field(g)
        path = tmp_path / "f.bin"
        save_field(f, path)
        back = load_field(path)
        assert back.grid == g
        assert np.array_equal(back.values, f.values)

    def test_binary_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a field at all")
        with pytest.raises(ConfigError):
            load_field(path)

